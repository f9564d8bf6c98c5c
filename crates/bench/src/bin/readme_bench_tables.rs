//! Regenerates the benchmark tables in `README.md` from the committed
//! `BENCH_pdg.json` and `BENCH_runtime.json`, so the prose never drifts
//! from the measured numbers. The tables live between marker comments:
//!
//! ```text
//! <!-- BENCH_PDG_TABLE:BEGIN -->    ... <!-- BENCH_PDG_TABLE:END -->
//! <!-- BENCH_RUNTIME_TABLE:BEGIN --> ... <!-- BENCH_RUNTIME_TABLE:END -->
//! ```
//!
//! Run from the repository root (or via `scripts/readme_bench_tables.sh`):
//!
//! ```text
//! cargo run --release -p pspdg-bench --bin readme_bench_tables
//! ```
//!
//! The JSON files are this workspace's own regular, line-per-kernel
//! output, so a small field scanner suffices (no serde in the offline
//! build environment).

use std::fmt::Write as _;

/// Extract the value of `"key": ...` from a one-kernel JSON line, as the
/// raw token (quoted strings keep their quotes stripped).
fn field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .char_indices()
        .scan(0u32, |depth, (i, ch)| {
            match ch {
                '{' | '[' => *depth += 1,
                '}' | ']' if *depth > 0 => *depth -= 1,
                '}' | ']' if *depth == 0 => return None,
                ',' if *depth == 0 => return None,
                _ => {}
            }
            Some(i + ch.len_utf8())
        })
        .last()
        .unwrap_or(0);
    let raw = rest[..end].trim();
    Some(raw.trim_matches('"').to_string())
}

fn kernel_lines(json: &str) -> Vec<&str> {
    json.lines()
        .filter(|l| l.trim_start().starts_with("{\"kernel\""))
        .collect()
}

fn ms(ns: &str) -> String {
    match ns.parse::<f64>() {
        Ok(v) => format!("{:.1}", v / 1e6),
        Err(_) => "?".to_string(),
    }
}

fn us(ns: &str) -> String {
    match ns.parse::<f64>() {
        Ok(v) => format!("{:.0}", v / 1e3),
        Err(_) => "?".to_string(),
    }
}

fn pdg_table(json: &str) -> String {
    let mut t = String::from(
        "| kernel | mem refs | PDG edges | naive all-pairs (ms) | bucketed (ms) | bucketing speedup | per-function loop incl. analyses (ms) | overlay re-assemble (µs) | overlay clones |\n|---|---|---|---|---|---|---|---|---|\n",
    );
    for l in kernel_lines(json) {
        let g = |k: &str| field(l, k).unwrap_or_default();
        let _ = writeln!(
            t,
            "| {} | {} | {} | {} | {} | {}x | {} | {} | {} |",
            g("kernel"),
            g("mem_refs"),
            g("pdg_edges"),
            ms(&g("naive_all_pairs_ns")),
            ms(&g("bucketed_ns")),
            g("speedup"),
            ms(&g("sequential_module_ns")),
            us(&g("reassemble_overlay_ns")),
            g("overlay_clone_edges"),
        );
    }
    t
}

/// The module-scale row: the per-function loop on `synth::module`, from
/// the `module_scale` object.
fn pdg_module_table(json: &str) -> String {
    let Some(start) = json.find("\"module_scale\"") else {
        return String::from("*(no module_scale section in BENCH_pdg.json)*\n");
    };
    let section = &json[start..];
    let g = |k: &str| field(section, k).unwrap_or_default();
    // `program` holds a comma inside its quoted value, which the flat
    // field scanner would truncate; rebuild the label from the parts.
    format!(
        "`synth::module({}, {})` — {} mem refs, {} PDG edges: per-function loop **{} ms** (min of {} samples, {}-core host). Edge-set mismatches vs the naive all-pairs oracle: **{}**\n",
        g("n_funcs"),
        g("bases"),
        g("mem_refs"),
        g("pdg_edges"),
        ms(&g("sequential_ns")),
        g("samples_per_entry"),
        g("host_cores"),
        g("oracle_mismatches"),
    )
}

fn runtime_table(json: &str) -> String {
    let mut t = String::from(
        "| kernel | sequential (ms) | parallel (ms) | measured | predicted | emulate (ms) | dyn chunked | critical packets | critical replays | fallbacks (by cause) |\n|---|---|---|---|---|---|---|---|---|---|\n",
    );
    // The runtime JSON also has per-kernel profiling rows; only the
    // timed rows carry `measured_speedup`.
    for l in kernel_lines(json)
        .into_iter()
        .filter(|l| l.contains("\"measured_speedup\""))
    {
        let g = |k: &str| field(l, k).unwrap_or_default();
        let reasons = g("dyn_fallback_reasons");
        let reasons = if reasons.is_empty() {
            "—".to_string()
        } else {
            reasons.trim_matches(['{', '}']).replace('"', "")
        };
        let reasons = if reasons.is_empty() {
            "—".to_string()
        } else {
            reasons
        };
        let _ = writeln!(
            t,
            "| {} | {} | {} | {}x | {}x | {} | {} | {} | {} | {} |",
            g("kernel"),
            ms(&g("sequential_ns")),
            ms(&g("parallel_ns")),
            g("measured_speedup"),
            g("predicted_parallelism"),
            ms(&g("emulate_ns")),
            g("dyn_chunked"),
            g("critical_packets"),
            g("critical_replays"),
            reasons,
        );
    }
    if let Some(geo) = field(json, "geomean_measured_speedup") {
        let _ = writeln!(t, "\n**Geomean measured speedup: {geo}x**");
    }
    if let Some(geo) = field(json, "engine_vs_oracle_geomean") {
        let _ = writeln!(
            t,
            "\nOne-worker runtime ÷ sequential interpreter on the same instruction stream (geomean): **{geo}x**"
        );
    }
    if let Some(geo) = field(json, "emulator_vs_traced_geomean") {
        let _ = writeln!(
            t,
            "\nEmulation ÷ a traced run into a sink that only counts (geomean): **{geo}x**"
        );
    }
    t
}

/// Replace the region between `<!-- {marker}:BEGIN -->` and
/// `<!-- {marker}:END -->` with `body`.
fn splice(readme: &str, marker: &str, body: &str) -> String {
    let begin = format!("<!-- {marker}:BEGIN -->");
    let end = format!("<!-- {marker}:END -->");
    let Some(b) = readme.find(&begin) else {
        panic!("README.md is missing the {begin} marker");
    };
    let Some(e) = readme.find(&end) else {
        panic!("README.md is missing the {end} marker");
    };
    let mut out = String::new();
    out.push_str(&readme[..b + begin.len()]);
    out.push('\n');
    out.push_str(body.trim_end());
    out.push('\n');
    out.push_str(&readme[e..]);
    out
}

fn main() {
    let pdg = std::fs::read_to_string("BENCH_pdg.json").expect("read BENCH_pdg.json");
    let runtime = std::fs::read_to_string("BENCH_runtime.json").expect("read BENCH_runtime.json");
    let readme = std::fs::read_to_string("README.md").expect("read README.md");
    let readme = splice(&readme, "BENCH_PDG_TABLE", &pdg_table(&pdg));
    let readme = splice(&readme, "BENCH_PDG_MODULE_TABLE", &pdg_module_table(&pdg));
    let readme = splice(&readme, "BENCH_RUNTIME_TABLE", &runtime_table(&runtime));
    std::fs::write("README.md", readme).expect("write README.md");
    println!("README.md benchmark tables regenerated from BENCH_pdg.json + BENCH_runtime.json");
}
