//! The evaluation harness's one entry point: renders any table or figure
//! of the paper's evaluation by registry name, the whole evaluation in
//! order (`reproduce`), or the registry itself (`list`). Flags and
//! defaults are documented on [`cosmic_bench::figures::parse_args`].
//! `cosmic-bench director-chaos` runs the director's crash-recovery
//! harness instead ([`cosmic_bench::chaos`]).
//!
//! `--trace <path>` exports the run's Chrome-trace JSON to `path` and
//! the flat counters to a sibling `metrics.json`. All timestamps are
//! virtual, so identical seeds produce byte-identical exports.

use std::process::ExitCode;

use cosmic_bench::chaos;
use cosmic_bench::figures::{parse_args, render};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("director-chaos") {
        return chaos::run(&args[2..]);
    }
    let rendered = parse_args(&args)
        .and_then(|(command, trace, ctx)| Ok((render(&command, &ctx)?, trace, ctx)));
    let (report, trace, ctx) = match rendered {
        Ok(rendered) => rendered,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    print!("{report}");
    if let Some(path) = trace {
        if let Err(e) = ctx.sink.write(&path) {
            eprintln!("error: could not write trace to {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
