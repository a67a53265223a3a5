//! Self-checks of the benchmark, at `--scale 0.02`.
//!
//! The traced run uses process-wide state (the span recorder, the engine's
//! metrics registry), so every test takes [`serial`] first.

use avq_benchmark::metrics::{Def, END_TO_END, PER_LAYER};
use avq_benchmark::workload::{generate, Generator, Workload};
use avq_benchmark::{run_end_to_end, run_traced, Args, Outcome};
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn args(workload: Workload, seed: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        seconds: 0.3,
        trace,
        scale: 0.02,
        trace_out: None,
        corrupt_oracle: false,
    }
}

fn run(a: &Args) -> Outcome {
    let outcome = if a.trace {
        run_traced(a)
    } else {
        run_end_to_end(a)
    };
    outcome.unwrap_or_else(|e| panic!("{} --trace {}: {e}", a.workload.name(), a.trace))
}

/// `BENCHMARK.json` as the catalogue in `src/` defines it.
fn benchmark_json() -> String {
    let metric = |d: &Def| {
        let better = if d.lower_is_better { "lower" } else { "higher" };
        match d.bound {
            Some(b) => format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {b}}}",
                d.name, d.unit
            ),
            None => format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                d.name, d.unit
            ),
        }
    };
    let list = |defs: &[Def]| defs.iter().map(metric).collect::<Vec<_>>().join(",\n");
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": 10,\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(END_TO_END),
        list(PER_LAYER)
    )
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let expected = benchmark_json();
    assert!(
        on_disk == expected,
        "BENCHMARK.json and the catalogue in src/metrics.rs differ; the catalogue gives:\n{expected}"
    );
}

#[test]
fn names_units_and_bounds_fit_the_contract() {
    let ok = |s: &str, extra: &str, max: usize| {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(ok(d.name, "_.-", 64), "metric name `{}`", d.name);
        assert!(ok(d.unit, "_/%.-", 16), "unit `{}` of `{}`", d.unit, d.name);
        assert!(seen.insert(d.name), "`{}` is listed twice", d.name);
    }
    for w in Workload::ALL {
        assert!(ok(w.name(), "_.-", 64) && seen.insert(w.name()));
        assert!(w.why().len() <= 200 && !w.why().contains(['\n', '"']));
    }
    assert!(END_TO_END
        .iter()
        .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.lower_is_better));
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
}

#[test]
fn a_seed_fixes_the_op_stream() {
    let stream = |workload, seed| {
        let data = generate(workload, seed, 0.02);
        let mut gen = Generator::new(workload, seed, &data);
        (0..600)
            .map(|_| format!("{:?}", gen.next_op()))
            .collect::<Vec<_>>()
    };
    for w in Workload::ALL {
        assert_eq!(
            stream(w, 11),
            stream(w, 11),
            "{}: same seed, different streams",
            w.name()
        );
        assert_ne!(
            stream(w, 11),
            stream(w, 12),
            "{}: the seed does not reach the stream",
            w.name()
        );
    }
}

#[test]
fn every_workload_is_correct_and_prints_the_whole_catalogue() {
    let _guard = serial();
    for w in Workload::ALL {
        let first = run(&args(w, 5, false));
        let second = run(&args(w, 5, false));
        for o in [&first, &second] {
            assert!(
                o.correct && o.failed == 0 && o.attempted > 0,
                "{}: {o:?}",
                w.name()
            );
            // `to_json` refuses a missing, surplus or non-finite metric.
            o.to_json().expect("the end-to-end catalogue, exactly");
            assert!(END_TO_END
                .iter()
                .all(|d| o.metrics.get(d.name).is_some_and(|v| v > 0.0)));
        }
        if !w.writes() {
            // Count-type metrics repeat exactly on read-only workloads.
            assert_eq!(
                first.metrics.get("space_ratio"),
                second.metrics.get("space_ratio")
            );
        }
    }
}

#[test]
fn the_traced_run_accounts_for_the_op_wall() {
    let _guard = serial();
    for w in Workload::ALL {
        let o = run(&args(w, 5, true));
        assert!(o.correct && o.failed == 0, "{}: {o:?}", w.name());
        o.to_json().expect("the per-layer catalogue, exactly");
        let get = |name: &str| o.metrics.get(name).expect(name);
        let shares: f64 = PER_LAYER
            .iter()
            .filter(|d| d.name.starts_with("share."))
            .map(|d| get(d.name))
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{}: shares sum to {shares}",
            w.name()
        );
        assert!(get("obs.trace_overhead_ratio") > 0.0);
        match w {
            Workload::ScanCold | Workload::ProbeWarm => {
                assert!(
                    get("share.unaccounted") <= 0.15,
                    "{}: {}",
                    w.name(),
                    get("share.unaccounted")
                );
                assert_eq!(get("share.wal"), 0.0);
            }
            Workload::IngestDurable => {
                assert!(
                    get("share.wal") > 0.0
                        && get("db.recovery_s") > 0.0
                        && get("wal.fsyncs_per_op") > 0.0
                );
                assert_eq!(get("share.sql"), 0.0);
            }
            Workload::MixedRw => {
                assert!(get("share.codec") > 0.0 && get("storage.write_amp") > 0.0)
            }
        }
        if w == Workload::ProbeWarm {
            assert_eq!(
                get("codec.decodes_per_op"),
                0.0,
                "a warm working set decodes nothing"
            );
            assert_eq!(get("storage.decoded_hit_rate"), 1.0);
        }
    }
}

#[test]
fn a_wrong_oracle_fails_the_run() {
    let _guard = serial();
    let mut a = args(Workload::ProbeWarm, 5, false);
    a.corrupt_oracle = true;
    let o = run(&a);
    assert!(o.failed > 0 && !o.correct, "{o:?}");
    assert_ne!(o.exit_code(), 0);
}
