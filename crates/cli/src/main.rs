//! `avqtool` — see `avq_cli::commands::USAGE`.

use avq_cli::commands;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("avqtool: {e}");
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}

/// Removes `name <value>` from `args`, returning the value when present.
fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, commands::CliError> {
    match args.iter().position(|a| a == name) {
        Some(i) if i + 1 < args.len() => {
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
        Some(_) => Err(format!("{name} needs a value").into()),
        None => Ok(None),
    }
}

/// Removes the boolean switch `name` from `args`, returning whether it was
/// present.
fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Command-specific switches and flags, extracted before positional
/// dispatch.
struct Switches {
    deep: bool,
    repair: bool,
    /// `--trace`: print the span tree after a `sql` statement.
    trace: bool,
    /// `--sample <n>`: keep one trace in `n` (default: every trace).
    sample: Option<u64>,
    /// `--budget-ms <n>`: slow-query latency budget in milliseconds.
    budget_ms: Option<u64>,
    /// `--timeout-ms` / `--max-decoded-mb` / `--max-rows`: the governance
    /// budget for `sql` statements.
    budget: commands::BudgetFlags,
}

fn run(args: &[String]) -> Result<String, commands::CliError> {
    let mut args = args.to_vec();
    let format = take_flag(&mut args, "--format")?;
    let metrics_out = take_flag(&mut args, "--metrics-out")?;
    let switches = Switches {
        deep: take_switch(&mut args, "--deep"),
        repair: take_switch(&mut args, "--repair"),
        trace: take_switch(&mut args, "--trace"),
        sample: take_flag(&mut args, "--sample")?
            .map(|s| s.parse())
            .transpose()?,
        budget_ms: take_flag(&mut args, "--budget-ms")?
            .map(|s| s.parse())
            .transpose()?,
        budget: commands::BudgetFlags {
            timeout_ms: take_flag(&mut args, "--timeout-ms")?
                .map(|s| s.parse())
                .transpose()?,
            max_decoded_mb: take_flag(&mut args, "--max-decoded-mb")?
                .map(|s| s.parse())
                .transpose()?,
            max_rows: take_flag(&mut args, "--max-rows")?
                .map(|s| s.parse())
                .transpose()?,
        },
    };
    let result = dispatch(&args, format.as_deref(), &switches);
    match metrics_out {
        // The snapshot is written even when the command failed, so a
        // governance trip (timeout, quota, shed) still surfaces its
        // `avq.gov.*` counters for inspection.
        Some(p) => {
            let note = commands::write_metrics(Path::new(&p))?;
            result.map(|output| output + &note)
        }
        None => result,
    }
}

fn dispatch(
    args: &[String],
    format: Option<&str>,
    switches: &Switches,
) -> Result<String, commands::CliError> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match (cmd, &args[1..]) {
        ("create", rest) if rest.len() >= 3 => commands::create(
            Path::new(&rest[0]),
            Path::new(&rest[1]),
            Path::new(&rest[2]),
            rest.get(3).map(String::as_str),
            rest.get(4).map(|s| s.parse()).transpose()?,
        ),
        ("info", [path]) => commands::info(Path::new(path)),
        ("open", [dir]) => commands::open(Path::new(dir)),
        ("checkpoint", [dir]) => commands::checkpoint(Path::new(dir)),
        ("recover-info", [dir]) => commands::recover_info(Path::new(dir)),
        ("dump", [path]) => commands::dump(Path::new(path)),
        ("verify", [path]) => commands::verify(Path::new(path), switches.deep),
        ("scrub", [path]) => commands::scrub(Path::new(path), switches.repair),
        ("inject", [path, seed, k]) => commands::inject(Path::new(path), seed.parse()?, k.parse()?),
        ("query", [path, attr, lo, hi]) => commands::query(Path::new(path), attr, lo, hi),
        ("convert", rest) if rest.len() >= 3 => commands::convert(
            Path::new(&rest[0]),
            Path::new(&rest[1]),
            &rest[2],
            rest.get(3).map(|s| s.parse()).transpose()?,
        ),
        ("stats", rest) if rest.len() <= 1 => {
            commands::stats(rest.first().map(Path::new), format.unwrap_or("prom"))
        }
        ("explain", [path, attr, lo, hi]) => commands::explain_file(Path::new(path), attr, lo, hi),
        ("explain", [dir, relation, attr, lo, hi]) => {
            commands::explain_dir(Path::new(dir), relation, attr, lo, hi)
        }
        ("explain-join", [path, outer_attr, inner_attr]) => {
            commands::explain_join_file(Path::new(path), outer_attr, inner_attr)
        }
        ("explain-join", [dir, outer, outer_attr, inner, inner_attr]) => {
            commands::explain_join_dir(Path::new(dir), outer, outer_attr, inner, inner_attr)
        }
        ("sql", [target]) => commands::sql_repl(Path::new(target), &switches.budget),
        ("sql", [target, stmt]) if switches.trace => commands::sql_with_trace(
            Path::new(target),
            stmt,
            switches.sample,
            switches.budget_ms,
            &switches.budget,
        ),
        ("sql", [target, stmt]) => commands::sql(Path::new(target), stmt, &switches.budget),
        ("trace", [sub, target, stmt]) if sub == "export" => {
            commands::trace_export(Path::new(target), stmt, format.unwrap_or("chrome"))
        }
        ("trace", [sub, target, stmt]) if sub == "slow" => {
            commands::trace_slow(Path::new(target), stmt, switches.budget_ms)
        }
        ("help", _) | ("--help", _) | ("-h", _) => Ok(commands::USAGE.to_string()),
        (other, _) => Err(format!("unknown or malformed command {other:?}").into()),
    }
}
