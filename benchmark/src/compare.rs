//! `--compare`: do two sets of results of the same build agree within the
//! benchmark's own bounds? (`run.sh --selfcheck`.)

use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn list<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value], String> {
    doc[key]
        .as_array()
        .ok_or(format!("BENCHMARK.json: no {key:?} list"))
}

/// `<dir a> <dir b> --benchmark-json <file>`: every end-to-end metric of
/// every workload must differ by no more than its bound, and every count
/// must be identical.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let [a, b, flag, benchmark_json] = argv else {
        return Err("--compare takes <dir a> <dir b> --benchmark-json <file>".into());
    };
    if flag != "--benchmark-json" {
        return Err(format!("expected --benchmark-json, got {flag:?}"));
    }
    let (a, b) = (Path::new(a), Path::new(b));
    let benchmark = load(Path::new(benchmark_json))?;
    let mut disagreements = 0u32;
    println!(
        "{:<24} {:<28} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for workload in list(&benchmark, "workloads")? {
        let name = workload["name"].as_str().ok_or("workload without a name")?;
        let file = format!("{name}.json");
        let (ra, rb) = (load(&a.join(&file))?, load(&b.join(&file))?);
        for metric in list(&benchmark, "end_to_end")? {
            let key = metric["name"].as_str().ok_or("metric without a name")?;
            let bound = metric["bound"].as_f64().ok_or("metric without a bound")?;
            let (va, vb) = match (ra[key].as_f64(), rb[key].as_f64()) {
                (Some(va), Some(vb)) => (va, vb),
                _ => return Err(format!("{file}: no number {key:?}")),
            };
            let differ = (vb - va).abs() / va;
            let verdict = if differ <= bound { "" } else { "  DISAGREE" };
            println!(
                "{name:<24} {key:<28} {va:>14.6} {vb:>14.6} {differ:>8.4} {bound:>6.2}{verdict}"
            );
            disagreements += (differ > bound) as u32;
        }
        for key in ["ops", "failed_ops"] {
            if ra[key] != rb[key] || (key == "failed_ops" && ra[key].as_u64() != Some(0)) {
                println!(
                    "{name:<24} {key:<28} {:?} vs {:?}  DISAGREE",
                    ra[key], rb[key]
                );
                disagreements += 1;
            }
        }
        let file = format!("{name}.layers.json");
        let (la, lb) = (load(&a.join(&file))?, load(&b.join(&file))?);
        for metric in list(&benchmark, "per_layer")? {
            let key = metric["name"].as_str().ok_or("metric without a name")?;
            let (va, vb) = (&la["metrics"][key], &lb["metrics"][key]);
            if metric["unit"].as_str() == Some("count") && va != vb {
                println!("{name:<24} {key:<28} {va:?} vs {vb:?}  DISAGREE");
                disagreements += 1;
            }
        }
    }
    if disagreements == 0 {
        println!("selfcheck: the two sets agree within every bound, all counts identical");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("selfcheck: {disagreements} disagreement(s)");
        Ok(ExitCode::FAILURE)
    }
}
