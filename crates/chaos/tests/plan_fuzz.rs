//! Seeded fuzzing of the fault-plan language: plans mixing well-formed
//! lines, boundary numbers (0, 1, `u64::MAX`, every unit suffix) and token
//! mutations must never panic the parser, every accepted window must end
//! no earlier than it starts, and a controller built from an accepted plan
//! must answer every hook at every window edge without panicking.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fv_chaos::{ChaosController, FaultPlan};
use fv_telemetry::Registry;
use netstack::packet::{AppId, VfPort};
use np_sim::FaultInjector;
use sim_core::rng::SimRng;
use sim_core::time::Nanos;

/// Every fault kind, each with the parameter key it takes.
const KINDS: &str = "wire_flap permille,me_stall engines,tm_pause,tm_drop every,lock_slow permille,\
                     cpu_burn cycles,clock_skew skew,host_pause app,vf_reset vf,reconfig scale_permille";
const UNITS: &str = "ns us ms s";
/// Tokens a mutation splices in: misplaced keywords, a sign, an exponent,
/// hex, one past `u64::MAX`, a bare unit, a non-ASCII digit, a comment.
const JUNK: &str = "at for chaos seed -1 1e3 0x10 18446744073709551616 ms １ #";

/// One of the `sep`-separated items of `list`.
fn pick<'a>(rng: &mut SimRng, list: &'a str, sep: char) -> &'a str {
    let items: Vec<&str> = list.split(sep).collect();
    items[rng.index(items.len())]
}

/// Half the time small, otherwise at or near a boundary.
fn number(rng: &mut SimRng) -> u64 {
    match rng.range(0, 12) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => u64::MAX / 1_000,
        4 => u64::MAX / 1_000_000,
        5 => u64::MAX / 1_000_000_000,
        6 => rng.next_u64(),
        _ => rng.range(1, 20_000),
    }
}

fn line(rng: &mut SimRng) -> String {
    if rng.chance(0.1) {
        return format!("chaos seed {}", number(rng));
    }
    let mut kind = pick(rng, KINDS, ',').split(' ');
    let dur = |rng: &mut SimRng| format!("{}{}", number(rng), pick(rng, UNITS, ' '));
    let mut out = format!(
        "chaos fault {} at {} for {}",
        kind.next().unwrap(),
        dur(rng),
        dur(rng)
    );
    if let Some(key) = kind.next() {
        let value = if key == "skew" {
            dur(rng)
        } else {
            number(rng).to_string()
        };
        out.push_str(&format!(" {key} {value}"));
    }
    if rng.chance(0.75) {
        return out;
    }
    let mut toks: Vec<String> = out.split(' ').map(str::to_owned).collect();
    let i = rng.index(toks.len());
    match rng.range(0, 5) {
        0 => drop(toks.remove(i)),
        1 => {
            let j = rng.index(toks.len());
            toks.swap(i, j);
        }
        2 => toks.truncate(i),
        3 => {
            // Keep only the digits, or only the unit.
            let cut = toks[i].find(|c: char| !c.is_ascii_digit()).unwrap_or(0);
            toks[i] = if rng.chance(0.5) {
                toks[i][..cut].into()
            } else {
                toks[i][cut..].into()
            };
        }
        _ => toks.insert(i, pick(rng, JUNK, ' ').into()),
    }
    toks.join(" ")
}

/// Asks every hook of `c` about `t`.
fn ask_every_hook(c: &ChaosController, t: Nanos) {
    c.note_transitions(t);
    c.wire_rate_permille(t);
    c.stalled_engines(t);
    c.extra_cycles(t);
    c.tm_fault(t, 7);
    c.lock_hold_permille(t);
    c.sched_clock_skew(t);
    c.plan().reconfig_scale_at(t);
    for id in [0, 1, u16::MAX] {
        c.app_paused_until(AppId(id), t);
        c.vf_down(VfPort(id as u8), t);
    }
}

#[test]
fn random_plans_never_panic_and_keep_windows_ordered() {
    let mut rng = SimRng::seed(0x5eed_f00d);
    let (mut accepted, mut faults) = (0, 0);
    for _ in 0..3_000 {
        let text: String = (0..rng.range(1, 5))
            .map(|_| line(&mut rng) + "\n")
            .collect();
        let Ok(plan) = catch_unwind(|| FaultPlan::parse(&text))
            .unwrap_or_else(|_| panic!("FaultPlan::parse panicked on {text:?}"))
        else {
            continue;
        };
        accepted += 1;
        faults += plan.faults.len();
        catch_unwind(AssertUnwindSafe(|| {
            let mut edges = vec![Nanos::ZERO, Nanos::from_nanos(u64::MAX)];
            for f in &plan.faults {
                assert!(f.end() >= f.at, "window ends before it starts: {f:?}");
                for t in [f.at, f.end()] {
                    edges.extend([t.saturating_sub(Nanos::from_nanos(1)), t]);
                }
            }
            edges.sort();
            let c = ChaosController::new(plan.clone(), &Registry::new());
            for t in edges {
                ask_every_hook(&c, t);
            }
        }))
        .unwrap_or_else(|_| panic!("accepted plan {text:?} panicked a check or a hook"));
    }
    // The generator must reach both sides of the grammar.
    assert!(accepted > 300, "only {accepted} of 3000 plans parsed");
    assert!(faults > 300, "only {faults} faults accepted");
}
