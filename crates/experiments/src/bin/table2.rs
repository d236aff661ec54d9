//! Regenerates Table 2 (nsyn5 tr×nr grid) of the paper. Usage: `--scale <f> --seed <n> --out <dir> --threads <n> --no-resume`.
fn main() {
    pnr_experiments::run_main("table2", pnr_experiments::experiments::table2);
}
