//! `rsb-perf`: the repository's benchmark.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` records spans around the
//! benchmark's calls into each layer and reports the per-layer metrics.
//! Either way the outputs are checked, a results file with an
//! environment block lands in `benchmark/out/`, and the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod env;
mod gen;
mod layers;
mod run;
mod stats;
mod trace;
mod workload;

use rsb_store::{Loopback, TcpTransport};
use run::{Connect, Rig};
use std::fmt::Write as _;
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 11] = [
    "setup_s",
    "throughput_kops",
    "read_p50_us",
    "write_p50_us",
    "read_p99_us",
    "write_p99_us",
    "cpu_us_per_op",
    "rss_peak_mb",
    "storage_ratio",
    "peak_storage_ratio",
    "ok_ratio",
];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// False when a percentile lacks the samples to be compared between
    /// commits (short smoke runs).
    pub comparable: bool,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            comparable: true,
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    /// Required: `BENCHMARK.json` holds the one value metrics are
    /// compared at, and nothing here repeats it.
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: rsb-perf --workload <{}> --seconds <s> [--seed <n>] [--trace <0|1>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// What one run produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Extra members of the results file, already rendered as JSON
    /// `"key": value` pairs.
    pub diagnostics: Vec<String>,
}

fn end_to_end<T: Connect>(args: &Args) -> Outcome {
    let w = args.workload;
    let (rig, first_setup_s) = Rig::<T>::setup_timed(w, args.seed);
    let (fixed_ops, fixed_failures) = run::fixed_phase(w, &rig);
    // The memory peak and the sum of per-key storage peaks grow with the
    // ops run, so they are read here, after a fixed number of ops and
    // before the timed phase allocates its sample buffers: neither the
    // throughput nor the benchmark's own bookkeeping feeds into them.
    let after_fixed = run::quiesce(rig.service.store());
    let rss_peak_mb = env::rss_peak_mb();
    let timed = run::timed_phase(w, &rig, args.seconds, None);
    let at_end = run::quiesce(rig.service.store());
    let r = timed.reduce();
    let (checked, check_failures) = run::verify(&rig);
    rig.teardown();
    let setup_s = Rig::<T>::median_setup_s(w, args.seed, first_setup_s);
    let attempted = fixed_ops + r.attempted + checked;
    let failed = fixed_failures + r.failed + check_failures;

    let quantile = |name, unit, q: run::Quantile| Metric {
        name,
        value: q.us,
        unit,
        comparable: q.comparable,
    };
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_kops", r.throughput_kops, "kops/s"),
        quantile("read_p50_us", "us", r.read_p50),
        quantile("write_p50_us", "us", r.write_p50),
        quantile("read_p99_us", "us", r.read_p99),
        quantile("write_p99_us", "us", r.write_p99),
        Metric::new("cpu_us_per_op", r.cpu_us_per_op, "us"),
        Metric::new("rss_peak_mb", rss_peak_mb, "MB"),
        Metric::new(
            "storage_ratio",
            at_end.occupancy_bits() as f64 / w.user_bits(),
            "ratio",
        ),
        Metric::new(
            "peak_storage_ratio",
            after_fixed.peak_register_bits() as f64 / w.user_bits(),
            "ratio",
        ),
        Metric::new(
            "ok_ratio",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        ),
    ];
    let mut diagnostics = vec![
        format!("\"fail_ratio\": {}", failed as f64 / attempted as f64),
        // Where the sum of per-key peaks stood when the timed phase had
        // run as well.
        format!(
            "\"peak_storage_ratio_end\": {:.4}",
            at_end.peak_register_bits() as f64 / w.user_bits()
        ),
        format!("\"read_p999_us\": {:.3}", r.read_p999_us),
        format!("\"write_p999_us\": {:.3}", r.write_p999_us),
        format!("\"read_samples\": {}", r.read_samples),
        format!("\"write_samples\": {}", r.write_samples),
        format!("\"os_threads\": {}", timed.os_threads),
        format!("\"live_records\": {}", at_end.live_records()),
    ];
    // How steady the run was, segment by segment.
    for (name, values) in [
        ("segment_kops", &r.segment_kops),
        ("segment_cpu_us_per_op", &r.segment_cpu_us_per_op),
    ] {
        let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        diagnostics.push(format!("\"{name}\": [{}]", items.join(", ")));
    }
    Outcome {
        metrics,
        attempted,
        failed,
        diagnostics,
    }
}

fn measure<T: Connect>(args: &Args) -> Outcome {
    if args.trace {
        layers::per_layer::<T>(args.workload, args.seed, args.seconds)
    } else {
        end_to_end::<T>(args)
    }
}

fn metrics_json(metrics: &[Metric], with_flags: bool) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            let flag = if with_flags {
                format!(", \"comparable\": {}", m.comparable)
            } else {
                String::new()
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{flag}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

fn write_results(args: &Args, outcome: &Outcome) -> std::io::Result<()> {
    let w = args.workload;
    let mut doc = String::new();
    let _ = writeln!(doc, "{{\"workload\": \"{}\",", w.name);
    let _ = writeln!(doc, " \"why\": {},", env::json_str(w.why));
    let _ = writeln!(doc, " \"trace\": {},", args.trace);
    let _ = writeln!(
        doc,
        " \"environment\": {},",
        env::environment_json(args.seed, args.seconds)
    );
    let _ = writeln!(doc, " \"config\": {},", w.config_json());
    let _ = writeln!(doc, " \"attempted\": {},", outcome.attempted);
    let _ = writeln!(doc, " \"failed\": {},", outcome.failed);
    let _ = writeln!(
        doc,
        " \"comparable\": {},",
        outcome.metrics.iter().all(|m| m.comparable)
    );
    for d in &outcome.diagnostics {
        let _ = writeln!(doc, " {d},");
    }
    let _ = writeln!(
        doc,
        " \"metrics\": {}}}",
        metrics_json(&outcome.metrics, true)
    );
    let dir = layers::out_dir(w);
    std::fs::create_dir_all(&dir)?;
    let file = format!("seed{}-trace{}.json", args.seed, u8::from(args.trace));
    std::fs::write(dir.join(file), doc)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("rsb-perf: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("rsb-perf: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    if std::env::var_os("RSB_GF256_KERNEL").is_some() {
        eprintln!("rsb-perf: RSB_GF256_KERNEL is set; the benchmark measures the detected kernel");
        return ExitCode::from(2);
    }
    let outcome = if args.workload.tcp {
        measure::<TcpTransport>(&args)
    } else {
        measure::<Loopback>(&args)
    };
    if let Err(e) = write_results(&args, &outcome) {
        eprintln!("rsb-perf: writing the results file: {e}");
        return ExitCode::from(1);
    }
    for m in &outcome.metrics {
        let note = if m.comparable {
            ""
        } else {
            "  (too few samples: not comparable)"
        };
        eprintln!("{:<28} {:>14.4} {}{note}", m.name, m.value, m.unit);
    }
    let expected: &[&str] = if args.trace {
        &layers::PER_LAYER
    } else {
        &END_TO_END
    };
    assert!(
        outcome
            .metrics
            .iter()
            .map(|m| m.name)
            .eq(expected.iter().copied()),
        "the reported metrics are the ones BENCHMARK.json lists"
    );
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics, false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics the code
    /// reports (checked textually: the benchmark carries no JSON parser).
    #[test]
    fn the_contract_names_what_the_code_reports() {
        let contract =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END)
            .chain(layers::PER_LAYER);
        let mut expected = 0;
        for name in names {
            let member = format!("\"name\": \"{name}\"");
            assert_eq!(contract.matches(&member).count(), 1, "{name}");
            expected += 1;
        }
        assert_eq!(contract.matches("\"name\":").count(), expected);
        assert!(contract.contains("\"benchmark\""), "paths lists benchmark/");
    }
}
