//! Regenerates Table 5 (target-class proportion sweep) of the paper. Usage: `--scale <f> --seed <n> --out <dir> --threads <n> --no-resume`.
fn main() {
    pnr_experiments::run_main("table5", pnr_experiments::experiments::table5);
}
