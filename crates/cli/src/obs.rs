//! Observability wiring shared by `eval` and `simulate`: the
//! `--trace-out` / `--flight-recorder` / `--metrics` / `--dump-plan`
//! options and the [`Obs`] assembled from them.

use crate::{err, CliError};
use calm_obs::{ChromeTraceSink, FlightRecorder, JsonlSink, MultiSink, Obs, ReportSink, Sink};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Observability options shared by `eval` and `simulate`
/// (`--trace-out PREFIX`, `--flight-recorder PATH`, `--metrics` and
/// `--dump-plan`).
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Write trace artifacts `<prefix>.jsonl` (event log) and
    /// `<prefix>.trace.json` (Chrome trace-event JSON).
    pub trace_out: Option<PathBuf>,
    /// Attach the always-on flight recorder: a bounded ring of recent
    /// observations dumped to this JSONL file when an anomaly fires
    /// (retry-budget exhaustion, wire decode failure, node crash, or
    /// non-quiescent termination). A clean run writes nothing.
    pub flight_recorder: Option<PathBuf>,
    /// Append the terminal run report to the command output.
    pub metrics: bool,
    /// Print the compiled query plan — per rule, the join order of
    /// round 0 and of every delta seed, each atom tagged with how the
    /// kernel reaches it (`probe@c`/`lookup`/`scan`) — as `% `-prefixed
    /// comment lines before the results.
    pub dump_plan: bool,
}

/// Derive `<prefix>.<ext>` from a `--trace-out` prefix, appending to the
/// file name rather than replacing an existing extension.
pub(crate) fn trace_path(prefix: &Path, ext: &str) -> PathBuf {
    let mut name = prefix.as_os_str().to_os_string();
    name.push(".");
    name.push(ext);
    PathBuf::from(name)
}

/// A path like `out/run42/trace` usually points into a directory that
/// doesn't exist yet; create it rather than surfacing the opaque ENOENT
/// the sink would hit.
fn ensure_parent(flag: &str, path: &Path) -> Result<(), CliError> {
    match path.parent().filter(|d| !d.as_os_str().is_empty()) {
        Some(dir) => std::fs::create_dir_all(dir).map_err(|e| {
            err(format!(
                "{flag}: cannot create directory '{}': {e}",
                dir.display()
            ))
        }),
        None => Ok(()),
    }
}

/// Assemble an [`Obs`] from the options, plus handles needed afterwards:
/// the report sink to render (when `--metrics`) and extra sinks such as
/// a [`TraceSink`] the caller wants fanned in.
pub(crate) fn build_obs(
    opts: &ObsOptions,
    extra: Vec<Arc<dyn Sink>>,
) -> Result<(Obs, Option<Arc<ReportSink>>), CliError> {
    let mut sinks: Vec<Arc<dyn Sink>> = extra;
    if let Some(prefix) = &opts.trace_out {
        ensure_parent("--trace-out", prefix)?;
        let jsonl = JsonlSink::create(&trace_path(prefix, "jsonl"))
            .map_err(|e| err(format!("--trace-out: {e}")))?;
        let chrome = ChromeTraceSink::create(&trace_path(prefix, "trace.json"))
            .map_err(|e| err(format!("--trace-out: {e}")))?;
        sinks.push(Arc::new(jsonl));
        sinks.push(Arc::new(chrome));
    }
    if let Some(path) = &opts.flight_recorder {
        ensure_parent("--flight-recorder", path)?;
        sinks.push(Arc::new(FlightRecorder::new(path)));
    }
    let report = if opts.metrics {
        let r = Arc::new(ReportSink::new());
        sinks.push(r.clone());
        Some(r)
    } else {
        None
    };
    let obs = match sinks.len() {
        0 => Obs::noop(),
        1 => Obs::new(sinks.pop().expect("one sink")),
        _ => Obs::new(Arc::new(MultiSink::new(sinks))),
    };
    Ok((obs, report))
}
