//! The repository benchmark: end-to-end and per-layer cost of SCIP over
//! LRU on three workloads (see `perfbench/layers.json`).
//!
//! ```text
//! perfbench --workload <replay-cdnt|stream-cdna|daemon-cdnt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.py`,
//! which builds this package first). The last stdout line is the result:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. The line before
//! it stamps the host and code the numbers came from. A traced run also
//! writes its spans to `.bench_out/`. Any failed output check makes the
//! exit code 1.

mod bench;
mod daemon;
mod replay;
mod report;
mod rungs;
mod spans;
mod stream;

use std::path::{Path, PathBuf};
use std::process::Command;

use cdn_trace::checksum::Fnv1a64;

use crate::report::Report;

/// Version of the metric catalogue and its definitions.
const SCHEMA: &str = "perfbench_v1";
/// Where runs keep their scratch files and span dumps.
const OUT_DIR: &str = ".bench_out";

/// One invocation's settings.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Directory for the run's files, inside the checkout.
    pub out_dir: PathBuf,
}

impl Run {
    /// Measured rounds a run makes at least, so every median has three
    /// samples untraced; the traced run takes two.
    pub fn min_rounds(&self) -> usize {
        if self.traced {
            2
        } else {
            3
        }
    }
}

const WORKLOADS: [&str; 3] = ["replay-cdnt", "stream-cdna", "daemon-cdnt"];

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Run {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match WORKLOADS.iter().find(|w| **w == value) {
                Some(w) => workload = Some(*w),
                None => usage(&format!("unknown workload {value}")),
            },
            "--seed" => seed = value.parse::<u64>().ok().or_else(|| usage("bad --seed")),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .or_else(|| usage("bad --seconds"))
            }
            "--trace" => match value.as_str() {
                "0" => traced = Some(false),
                "1" => traced = Some(true),
                _ => usage("--trace takes 0 or 1"),
            },
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Run {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        traced: traced.unwrap_or_else(|| usage("--trace is required")),
        out_dir: PathBuf::from(OUT_DIR),
    }
}

/// First line of a command's stdout, if it runs.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over the paths and contents of every file under `dirs`, in
/// sorted order: identifies the code measured when there is no git
/// metadata (the benchmark may run from an exported tree).
fn source_digest(dirs: &[&str]) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.is_file() {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut h = Fnv1a64::new();
    for f in files {
        h.update(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            h.update(&bytes);
        }
    }
    h.finish()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host, toolchain and code the numbers belong to, as a JSON object.
fn provenance(r: &Run) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    // Only this tree's own git metadata counts: an exported tree inside
    // some other repository must not report that repository's commit.
    let commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten();
    let digest = source_digest(&["crates", "perfbench/src", "Cargo.lock"]);
    format!(
        "{{\"schema\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"traced\":{},\
         \"cpu_model\":{},\"nproc\":{nproc},\"llc_bytes\":{},\"rustc\":{},\
         \"git_commit\":{},\"source_digest\":\"{digest:016x}\"}}",
        json_str(SCHEMA),
        json_str(r.workload),
        r.seed,
        r.seconds,
        r.traced,
        json_str(&cpu),
        cdn_cache::llc_bytes(),
        json_str(&rustc),
        commit.map_or("null".to_string(), |c| json_str(&c)),
    )
}

fn main() {
    let r = parse_args();
    if let Err(e) = std::fs::create_dir_all(&r.out_dir) {
        eprintln!("error: cannot create {}: {e}", r.out_dir.display());
        std::process::exit(1);
    }
    let prov = provenance(&r);
    spans::set_enabled(r.traced);
    let mut report = Report::default();
    let mut values = match r.workload {
        "replay-cdnt" => replay::run(&r, &mut report),
        "stream-cdna" => stream::run(&r, &mut report),
        _ => daemon::run(&r, &mut report),
    };
    spans::set_enabled(false);
    values.set("served_frac", report.served_frac());
    values.emit(r.traced, &mut report);
    if r.traced {
        let path = r
            .out_dir
            .join(format!("spans-{}-seed{}.json", r.workload, r.seed));
        let doc = spans::to_json(&spans::take(), &format!("\"provenance\":{prov}"));
        if let Err(e) = std::fs::write(&path, doc) {
            report.fail(0, format!("cannot write {}: {e}", path.display()));
        }
    }
    println!("{{\"provenance\":{prov}}}");
    println!("{}", report.result_line());
    std::process::exit(if report.correct() { 0 } else { 1 });
}
