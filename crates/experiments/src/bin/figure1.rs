//! Regenerates Figure 1 (nsyn3 tr×nr grid) of the paper. Usage: `--scale <f> --seed <n> --out <dir> --threads <n> --no-resume`.
fn main() {
    pnr_experiments::run_main("figure1", pnr_experiments::experiments::figure1);
}
