//! CI fixture for the flight recorder: runs a handful of real recovery
//! cases with the flight recorder armed, then panics on purpose, so the
//! panic hook's dump artifact can be validated and archived. Exits
//! nonzero by construction — a zero exit means the fixture is broken.
//!
//! Run: `cargo run -p pm-bench --bin flight_fixture -- --out FILE
//! [--cases N]`

use pm_bench::{EvalOptions, SweepEngine};
use pm_sdwan::{ControllerId, SdWanBuilder};

fn main() {
    let mut out: Option<std::path::PathBuf> = None;
    let mut cases: usize = 5;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                out = Some(
                    args.next()
                        .unwrap_or_else(|| {
                            eprintln!("--out needs a file argument");
                            std::process::exit(2);
                        })
                        .into(),
                );
            }
            "--cases" => {
                cases = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--cases needs a positive integer argument");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown flag {other}; usage: flight_fixture --out FILE [--cases N]");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        eprintln!("flight_fixture: --out FILE is required");
        std::process::exit(2);
    });

    pm_obs::flight::arm_panic_hook(out);
    pm_obs::set_thread_label("flight-fixture-main");

    let net = SdWanBuilder::att_paper_setup().build().expect("paper net");
    let engine = SweepEngine::new(
        &net,
        EvalOptions {
            skip_optimal: true,
            ..Default::default()
        },
    );
    let n_controllers = net.controllers().len();
    for i in 0..cases.max(1) {
        let c = ControllerId(i % n_controllers);
        let case = engine.run_case(&[c]);
        eprintln!(
            "flight_fixture: case {} ({}) ran {} algorithms",
            i,
            case.label,
            case.runs.len()
        );
    }
    panic!("flight_fixture: deliberate panic after {cases} cases (this is the fixture working)");
}
