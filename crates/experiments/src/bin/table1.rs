//! Regenerates Table 1 (nsyn1..nsyn6) of the paper. Usage: `--scale <f> --seed <n> --out <dir> --threads <n> --no-resume`.
fn main() {
    pnr_experiments::run_main("table1", pnr_experiments::experiments::table1);
}
