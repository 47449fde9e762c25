//! Runs one workload in this process — untraced for the end-to-end
//! metrics, traced for the per-layer ladder — and renders the result.
//!
//! Load shape: a closed loop with one client. A single benchmark
//! thread issues the next unit when the previous returns; the
//! program's own pools and loopback links are its business.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::json::escape;
use crate::ladder::{self, Layers};
use crate::spec::Spec;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Unit, Workload, BUILD_STAGES};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed units a run makes however short its budget.
const MIN_UNITS: usize = 3;
/// Untraced/traced unit pairs behind `trace.overhead_share`.
const MIN_PAIRS: usize = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// The gated value.
    pub value: f64,
    /// The samples behind it (per-unit totals, set-ups, or the single
    /// measurement).
    pub summary: Summary,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub options: Options,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Chrome trace of a traced run.
    pub trace: Option<String>,
}

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Runs one unit; an `Err`, a panic, or a failed output check makes
    /// it a failed unit.
    fn attempt(&mut self, workload: &mut dyn Workload, tracer: &Tracer) -> Option<Unit> {
        self.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| workload.unit(tracer)));
        let error = match outcome {
            Ok(Ok(unit)) => return Some(unit),
            Ok(Err(e)) => e,
            Err(panic) => panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .map_or_else(|| "unit panicked".to_string(), |m| format!("unit panicked: {m}")),
        };
        self.failed += 1;
        self.errors.push(error);
        None
    }
}

/// Stage by stage, the fastest value `stages` yields across `units`.
///
/// Why the fastest and not the median: on a shared host the noise is
/// one-sided (a neighbour only ever slows a call down) and comes in
/// phases longer than a run, so the median of a run's units moves with
/// the host while the fastest observation of each short stage stays
/// near what the code costs. The per-unit median and quartiles are
/// printed and stored beside it.
fn fastest(units: &[Unit], stages: impl Fn(&Unit) -> Vec<f64>) -> Vec<f64> {
    units
        .iter()
        .map(stages)
        .reduce(|best, next| best.iter().zip(&next).map(|(a, b)| a.min(*b)).collect())
        .unwrap_or_default()
}

/// `latency_s` from each stage's fastest observation.
fn fastest_latency_s(units: &[Unit]) -> f64 {
    fastest(units, |u| u.latency.clone()).iter().sum()
}

/// `work_per_s` from each stage's fastest seconds per work item.
fn fastest_work_per_s(units: &[Unit]) -> f64 {
    let per_item = fastest(units, |u| u.work.iter().map(|(items, s)| s / items).collect());
    let items = units.first().map_or(&[][..], |u| &u.work).iter().map(|(items, _)| *items);
    let (work, seconds) =
        items.zip(per_item).fold((0.0, 0.0), |(w, s), (items, each)| (w + items, s + items * each));
    work / seconds
}

/// Resets this process's peak-RSS watermark, so the next `VmHWM` read
/// covers only what ran since. `false` where the kernel refuses.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs `options.workload` and gathers the metrics `spec` declares for
/// this kind of run.
pub fn run(options: &Options, spec: &Spec) -> Result<RunResult, String> {
    if options.traced {
        run_traced(options, spec)
    } else {
        run_untraced(options, spec)
    }
}

fn run_untraced(options: &Options, spec: &Spec) -> Result<RunResult, String> {
    let off = Tracer::new(false);
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut warm_ups = Vec::with_capacity(SETUPS);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        drop(workload.take()); // One set-up resident at a time.
        let start = Instant::now();
        let mut fresh = workloads::prepare(&options.workload, options.seed, options.quick)?;
        warm_ups.extend(tally.attempt(fresh.as_mut(), &off));
        setups.push(start.elapsed().as_secs_f64());
        workload = Some(fresh);
    }
    let mut workload = workload.ok_or("no set-up ran")?;
    workload.reference()?;

    // Peak RSS is sampled per timed unit (the watermark is reset before
    // each), so it is the steady-state footprint of the work, not of
    // set-up, and one allocator hiccup cannot decide it. Where the
    // kernel refuses the reset it is the whole process's watermark.
    let mut units = Vec::new();
    let mut unit_rss = Vec::new();
    let start = Instant::now();
    let mut attempts = 0;
    while attempts < MIN_UNITS || start.elapsed().as_secs_f64() < options.seconds {
        attempts += 1;
        let watermark_reset = reset_peak_rss();
        units.extend(tally.attempt(workload.as_mut(), &off));
        if watermark_reset {
            unit_rss.push(peak_rss_mib()?);
        }
    }
    if units.is_empty() {
        return Err(format!("no unit succeeded: {:?}", tally.errors));
    }
    if unit_rss.is_empty() {
        unit_rss.push(peak_rss_mib()?);
    }

    let work_per_s = Summary::of(&units.iter().map(Unit::work_per_s).collect::<Vec<_>>());
    let latency_s = Summary::of(&units.iter().map(Unit::latency_s).collect::<Vec<_>>());
    let (setup_s, rss) = (Summary::of(&setups), Summary::of(&unit_rss));
    // A cold stage is only ever slower, so the warm-up units can feed
    // the fastest-stage estimate too: more observations of every stage,
    // spread over more of the host's phases, at no extra run time. The
    // printed per-unit quartiles stay those of the timed units.
    units.extend(warm_ups);
    let values = [
        ("work_per_s", fastest_work_per_s(&units), work_per_s),
        ("latency_s", fastest_latency_s(&units), latency_s),
        ("setup_s", setup_s.median, setup_s),
        ("peak_rss_mib", rss.median, rss),
    ];
    let metrics = spec
        .end_to_end
        .iter()
        .map(|declared| {
            values
                .iter()
                .find(|(name, _, _)| *name == declared.name)
                .map(|(_, value, summary)| Metric {
                    name: declared.name.clone(),
                    unit: declared.unit.clone(),
                    value: *value,
                    summary: *summary,
                })
                .ok_or_else(|| format!("end-to-end metric {} is not measured", declared.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunResult {
        options: options.clone(),
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics,
        trace: None,
    })
}

fn run_traced(options: &Options, spec: &Spec) -> Result<RunResult, String> {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let mut tally = Tally::default();
    let mut workload = workloads::prepare(&options.workload, options.seed, options.quick)?;
    tally.attempt(workload.as_mut(), &off); // the warm-up unit
    workload.reference()?;

    // Alternate untraced and traced units of this workload: their
    // headline medians give the tracing overhead, the traced ones the
    // workload's own layer numbers.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut pairs = 0;
    while pairs < MIN_PAIRS || start.elapsed().as_secs_f64() < options.seconds / 2.0 {
        pairs += 1;
        plain.extend(tally.attempt(workload.as_mut(), &off));
        on.begin_unit(pairs as u32);
        traced.extend(tally.attempt(workload.as_mut(), &on));
    }
    drop(workload);
    on.begin_unit(0);
    if plain.is_empty() || traced.is_empty() {
        return Err(format!("no unit succeeded: {:?}", tally.errors));
    }
    let overhead =
        (fastest_work_per_s(&plain) - fastest_work_per_s(&traced)) / fastest_work_per_s(&plain);

    let mut own = Layers::new();
    for name in traced.iter().flat_map(|u| u.layers.keys()) {
        let samples: Vec<f64> = traced.iter().filter_map(|u| u.layers.get(name).copied()).collect();
        own.insert(name, median(&samples));
    }
    if options.workload == "build_suite" {
        let stages: f64 = BUILD_STAGES.iter().map(|(name, scale)| own[name] * scale).sum();
        let build_s = median(&traced.iter().map(Unit::latency_s).collect::<Vec<_>>());
        println!(
            "  build stages sum to {stages:.4} s of the {build_s:.4} s build latency ({:.2} %)",
            stages / build_s * 100.0
        );
    }

    tally.attempted += 1;
    let mut layers = match ladder::run(options.seed, options.quick, &on, (&options.workload, &own))
    {
        Ok(layers) => layers,
        Err(e) => return Err(format!("ladder failed: {e}")),
    };
    layers.insert("trace.overhead_share", overhead);

    let undeclared: Vec<&str> =
        layers.keys().copied().filter(|name| spec.metric(name).is_none()).collect();
    if !undeclared.is_empty() {
        return Err(format!("measured but not declared in BENCHMARK.json: {undeclared:?}"));
    }
    let metrics = spec
        .per_layer
        .iter()
        .map(|declared| {
            layers
                .get(declared.name.as_str())
                .map(|value| Metric {
                    name: declared.name.clone(),
                    unit: declared.unit.clone(),
                    value: *value,
                    summary: Summary::single(*value),
                })
                .ok_or_else(|| format!("per-layer metric {} is not measured", declared.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunResult {
        options: options.clone(),
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics,
        trace: Some(on.chrome_json()),
    })
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self) {
        let o = &self.options;
        let cores = std::thread::available_parallelism().map_or(0, usize::from);
        println!(
            "workload {} seed {} {}{}: closed loop, 1 client, {cores} cores; {} units attempted, {} failed",
            o.workload,
            o.seed,
            if o.traced { "traced" } else { "untraced" },
            if o.quick { " (quick shapes: not comparable)" } else { "" },
            self.attempted,
            self.failed,
        );
        for error in &self.errors {
            println!("  FAILED: {error}");
        }
        for m in &self.metrics {
            let s = m.summary;
            if s.n > 1 {
                println!(
                    "  {:<44} {:>14.6} {:<6} n={} median {:.6} [min {:.6} q1 {:.6} q3 {:.6} max {:.6}] (n < 100: no p90)",
                    m.name, m.value, m.unit, s.n, s.median, s.min, s.q1, s.q3, s.max
                );
            } else {
                println!("  {:<44} {:>14.6} {:<6}", m.name, m.value, m.unit);
            }
        }
    }

    fn metrics_json(&self, detail: bool) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            let s = m.summary;
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                if i == 0 { "" } else { ", " },
                escape(&m.name),
                m.value,
                escape(&m.unit)
            );
            if detail {
                let _ = write!(
                    out,
                    ", \"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}",
                    s.n, s.min, s.q1, s.median, s.q3, s.max
                );
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(false)
        )
    }

    /// The result file `compare` reads: the driver line's content plus
    /// the run's identity and each metric's quartiles.
    pub fn file_json(&self) -> String {
        let o = &self.options;
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"quick\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {},\n \"metrics\": {}}}\n",
            escape(&o.workload),
            o.seed,
            o.traced,
            o.quick,
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(true).replace("}, ", "},\n  ")
        )
    }
}
