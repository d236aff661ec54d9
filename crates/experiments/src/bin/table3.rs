//! Regenerates Table 3 (categorical-only datasets) of the paper. Usage: `--scale <f> --seed <n> --out <dir> --threads <n> --no-resume`.
fn main() {
    pnr_experiments::run_main("table3", pnr_experiments::experiments::table3);
}
