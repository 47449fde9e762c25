//! One module per table/figure of the paper's evaluation section. Every
//! module exposes one `run(&FigureCtx) -> String` (the printable
//! reproduction) plus the underlying data functions the tests assert
//! shapes on; the instrumented ones book their spans and counters into
//! the context's sink. [`FIGURES`] is the registry the `cosmic-bench`
//! binary dispatches over (`cosmic-bench <name> [--trace <path>]
//! [--transport sim|tcp] [--repr <spec>]`).

use std::path::PathBuf;

use cosmic_core::cosmic_runtime::collectives::WireRepr;
use cosmic_core::cosmic_runtime::TransportKind;
use cosmic_core::cosmic_telemetry::{Layer, TraceSink};

pub mod fig07_speedup;
pub mod fig08_scalability;
pub mod fig09_platforms;
pub(crate) mod fig10_compute;
pub(crate) mod fig11_perf_per_watt;
pub mod fig12_minibatch;
pub mod fig13_breakdown;
pub mod fig14_sources;
pub(crate) mod fig15_sensitivity;
pub(crate) mod fig16_dse;
pub mod fig17_tabla;
pub(crate) mod fig_collectives;
pub(crate) mod fig_director;
pub(crate) mod fig_elastic;
pub(crate) mod fig_faults;
pub mod table1_benchmarks;
pub mod table2_platforms;
pub(crate) mod table3_utilization;

/// Everything a figure's `run` may depend on besides its own constants.
/// The default — a fresh sink, the in-process wire, dense payloads — is
/// the configuration every golden is blessed against.
#[derive(Debug, Clone, Default)]
pub struct FigureCtx {
    /// Where instrumented figures book spans and counters. A caller
    /// that wants no telemetry passes a fresh sink and drops it.
    pub sink: TraceSink,
    /// The wire the functional cluster runs (`fig_faults`,
    /// `fig_elastic`) move their gradients over.
    pub transport: TransportKind,
    /// The wire representation `fig_collectives` prices its traced
    /// replay under.
    pub repr: WireRepr,
}

/// A figure module's single entry point.
pub type FigureFn = fn(&FigureCtx) -> String;

/// Every experiment, in paper order: the name `cosmic-bench` dispatches
/// on and the module's `run`.
pub const FIGURES: [(&str, FigureFn); 18] = [
    ("table1_benchmarks", table1_benchmarks::run),
    ("table2_platforms", table2_platforms::run),
    ("fig07_speedup", fig07_speedup::run),
    ("fig08_scalability", fig08_scalability::run),
    ("fig09_platforms", fig09_platforms::run),
    ("fig10_compute", fig10_compute::run),
    ("fig11_perf_per_watt", fig11_perf_per_watt::run),
    ("fig12_minibatch", fig12_minibatch::run),
    ("fig13_breakdown", fig13_breakdown::run),
    ("fig14_sources", fig14_sources::run),
    ("fig15_sensitivity", fig15_sensitivity::run),
    ("fig16_dse", fig16_dse::run),
    ("table3_utilization", table3_utilization::run),
    ("fig17_tabla", fig17_tabla::run),
    ("fig_faults", fig_faults::run),
    ("fig_collectives", fig_collectives::run),
    ("fig_elastic", fig_elastic::run),
    ("fig_director", fig_director::run),
];

/// Runs every experiment in [`FIGURES`] order, each inside its own
/// `Exec`-layer span on the context's sink, concatenating the printable
/// reports (the body of `cosmic-bench reproduce`).
pub fn run_all(ctx: &FigureCtx) -> String {
    let sections: Vec<String> = FIGURES
        .iter()
        .map(|(name, run)| {
            let _guard = ctx.sink.span(Layer::Exec, name);
            run(ctx)
        })
        .collect();
    sections.join("\n")
}

/// Renders `command` inside a root span named after it: a [`FIGURES`]
/// name, `reproduce` (every experiment in order as one consolidated
/// report), or `list` (the registry's names, one per line).
///
/// # Errors
///
/// Returns a message listing the registry when `command` is none of those.
pub fn render(command: &str, ctx: &FigureCtx) -> Result<String, String> {
    let _root = ctx.sink.span(Layer::Exec, command);
    match command {
        "list" => Ok(FIGURES.iter().map(|(name, _)| format!("{name}\n")).collect()),
        "reproduce" => {
            Ok(format!("# CoSMIC reproduction — full evaluation report\n\n{}", run_all(ctx)))
        }
        name => match FIGURES.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => Ok(run(ctx)),
            None => {
                let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
                let known = names.join(", ");
                Err(format!(
                    "unknown figure {name:?}; expected reproduce, list, or one of: {known}"
                ))
            }
        },
    }
}

/// The `cosmic-bench` command line.
pub(crate) const USAGE: &str = "usage: cosmic-bench <name | reproduce | list> [--trace <path>] \
                         [--transport sim|tcp] [--repr <spec>]";

/// Parses `USAGE` (`args[0]` is the program name; every flag also
/// accepts the `--flag=value` spelling) into the command to [`render`],
/// where `--trace` asked the Chrome trace to go, and the figure context
/// the flags select. `--repr` specs are the codec's CLI spellings:
/// `dense`, `fixed_point[:frac_bits]`, `top_k[:k]`.
///
/// # Errors
///
/// Returns the message to print when a flag lacks its value or names an
/// unknown backend or representation, when an argument is not
/// recognized, or when no command is given.
pub fn parse_args(args: &[String]) -> Result<(String, Option<PathBuf>, FigureCtx), String> {
    let mut command = None;
    let mut trace = None;
    let mut ctx = FigureCtx::default();
    let mut iter = args.iter().skip(1);
    while let Some(arg) = iter.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value.to_string())),
            _ => (arg.as_str(), None),
        };
        let value = |missing: &'static str| inline.or_else(|| iter.next().cloned()).ok_or(missing);
        match flag {
            "--trace" => trace = Some(PathBuf::from(value("--trace requires a path argument")?)),
            "--transport" => {
                let v = value("--transport requires a value (sim or tcp)")?;
                ctx.transport = TransportKind::parse(&v)
                    .ok_or_else(|| format!("unknown transport {v:?} (expected sim or tcp)"))?;
            }
            "--repr" => {
                let v = value("--repr requires a value (dense, fixed_point, or top_k)")?;
                ctx.repr = WireRepr::parse(&v).ok_or_else(|| {
                    format!("unknown repr {v:?} (expected dense, fixed_point[:bits], or top_k[:k])")
                })?;
            }
            name if command.is_none() && !name.starts_with('-') => command = Some(name.to_string()),
            other => return Err(format!("unexpected argument {other:?}; {USAGE}")),
        }
    }
    let command = command.ok_or_else(|| format!("no figure named; {USAGE}"))?;
    Ok((command, trace, ctx))
}
