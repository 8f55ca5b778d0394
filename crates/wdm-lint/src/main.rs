//! `wdm-lint` — run the workspace source lints (token rules L3–L5 and
//! call-graph rules L6–L9) and the Liang–Shen model verifier from the
//! command line.
//!
//! ```text
//! wdm-lint [--root DIR] [--json | --sarif] [--deny all]
//!          [--baseline FILE] [--write-baseline FILE]
//!          [--source-only | --model-only] [INSTANCE.wdm ...]
//! ```
//!
//! With no instance arguments the model engine verifies the built-in
//! paper worked example plus every `examples/*.wdm` under the root.
//! `--baseline FILE` grandfathers the findings listed in FILE: they stay
//! visible but only *new* deny findings fail the run.
//! `--write-baseline FILE` records the current findings as the new
//! baseline and exits clean.
//! Exit codes: `0` clean (or not denying), `1` new deny findings under
//! `--deny all`, `2` usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wdm_core::{paper_example, textfmt};
use wdm_lint::{
    findings::Severity, model, render_json, render_sarif, render_text, source, Baseline, Finding,
    ItemIndex,
};

struct Options {
    root: PathBuf,
    json: bool,
    sarif: bool,
    deny_all: bool,
    run_source: bool,
    run_model: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    instances: Vec<PathBuf>,
}

const USAGE: &str = "usage: wdm-lint [--root DIR] [--json | --sarif] [--deny all] \
                     [--baseline FILE] [--write-baseline FILE] \
                     [--source-only | --model-only] [INSTANCE.wdm ...]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        json: false,
        sarif: false,
        deny_all: false,
        run_source: true,
        run_model: true,
        baseline: None,
        write_baseline: None,
        instances: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let dir = it.next().ok_or("--root needs a directory argument")?;
                opts.root = PathBuf::from(dir);
            }
            "--json" => opts.json = true,
            "--sarif" => opts.sarif = true,
            "--baseline" => {
                let file = it.next().ok_or("--baseline needs a file argument")?;
                opts.baseline = Some(PathBuf::from(file));
            }
            "--write-baseline" => {
                let file = it.next().ok_or("--write-baseline needs a file argument")?;
                opts.write_baseline = Some(PathBuf::from(file));
            }
            "--deny" => {
                let what = it.next().ok_or("--deny needs an argument (only `all`)")?;
                if what != "all" {
                    return Err(format!("unknown --deny argument `{what}` (only `all`)"));
                }
                opts.deny_all = true;
            }
            "--source-only" => opts.run_model = false,
            "--model-only" => opts.run_source = false,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => opts.instances.push(PathBuf::from(path)),
        }
    }
    if !opts.run_source && !opts.run_model {
        return Err("--source-only and --model-only are mutually exclusive".into());
    }
    if opts.json && opts.sarif {
        return Err("--json and --sarif are mutually exclusive".into());
    }
    Ok(opts)
}

/// `examples/*.wdm` under the root, sorted for stable output.
fn discover_instances(root: &Path) -> Vec<PathBuf> {
    let dir = root.join("examples");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut found: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wdm"))
        .collect();
    found.sort();
    found
}

fn verify_instance_file(path: &Path, out: &mut Vec<Finding>) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let network =
        textfmt::from_text(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let label = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    out.extend(model::verify_network(&network, &label));
    Ok(())
}

fn run(opts: &Options) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    if opts.run_source {
        let index = ItemIndex::build_workspace(&opts.root)
            .map_err(|e| format!("indexing {}: {e}", opts.root.display()))?;
        findings.extend(source::scan_sources(&index));
    }
    if opts.run_model {
        findings.extend(model::verify_network(
            &paper_example::network(),
            "paper-example",
        ));
        let instances = if opts.instances.is_empty() {
            discover_instances(&opts.root)
        } else {
            opts.instances.clone()
        };
        for path in &instances {
            verify_instance_file(path, &mut findings)?;
        }
    }
    Ok(findings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("wdm-lint: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let findings = match run(&opts) {
        Ok(findings) => findings,
        Err(msg) => {
            eprintln!("wdm-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &opts.write_baseline {
        if let Err(e) = std::fs::write(path, Baseline::render(&findings)) {
            eprintln!("wdm-lint: writing baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "wdm-lint: wrote baseline with {} finding(s) to {}",
            findings.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }
    let baseline = match &opts.baseline {
        Some(path) => match Baseline::load(path) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("wdm-lint: reading baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    if opts.sarif {
        print!("{}", render_sarif(&findings));
    } else if opts.json {
        print!("{}", render_json(&findings));
    } else {
        print!("{}", render_text(&findings, &opts.root));
    }
    let is_new = |f: &Finding| baseline.as_ref().is_none_or(|b| !b.contains(f));
    let new_deny = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny && is_new(f))
        .count();
    if let Some(b) = &baseline {
        let grandfathered = findings.iter().filter(|f| b.contains(f)).count();
        if grandfathered > 0 {
            eprintln!(
                "wdm-lint: {grandfathered} grandfathered finding(s) (baseline holds {})",
                b.len()
            );
        }
    }
    if opts.deny_all && new_deny > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
