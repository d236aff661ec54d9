//! Regenerates Table 4 (syngen tr×nr grid) of the paper. Usage: `--scale <f> --seed <n> --out <dir> --threads <n> --no-resume`.
fn main() {
    pnr_experiments::run_main("table4", pnr_experiments::experiments::table4);
}
