//! `avq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--scale <f>] [--trace-out <file>]`
//!
//! Prints the result as one JSON object on the last line of standard
//! output; progress and diagnostics go to standard error.

use avq_benchmark::workload::Workload;
use avq_benchmark::{alloc, refclock, run_end_to_end, run_traced, Args};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ScanCold,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        trace_out: None,
        corrupt_oracle: false,
    };
    let mut workload = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad("between 0 and 3600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale" => {
                args.scale = value.parse().map_err(|_| bad("a number"))?;
                if !(args.scale > 0.0 && args.scale <= 4.0) {
                    return Err(bad("above 0 and at most 4"));
                }
            }
            "--trace-out" => args.trace_out = Some(value.into()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        if args.trace {
            run_traced(&args)
        } else {
            run_end_to_end(&args)
        }
    });
    let (fastest, median, slowest) = refclock::kernel_range();
    eprintln!(
        "avq-benchmark: reference kernel took {:.0} / {:.0} / {:.0} us (fastest / median / slowest; nominal {:.0})",
        fastest / 1e3,
        median / 1e3,
        slowest / 1e3,
        refclock::REFERENCE_NOMINAL_NS / 1e3
    );
    match outcome.and_then(|o| Ok((o.to_json()?, o.exit_code()))) {
        Ok((json, code)) => {
            println!("{json}");
            std::process::exit(code);
        }
        Err(e) => {
            eprintln!("avq-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
