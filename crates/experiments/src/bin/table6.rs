//! Regenerates Table 6 (KDD'99 simulation, probe & r2l) of the paper. Usage: `--scale <f> --seed <n> --out <dir> --threads <n> --no-resume`.
fn main() {
    pnr_experiments::run_main("table6", pnr_experiments::experiments::table6);
}
