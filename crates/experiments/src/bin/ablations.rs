//! Runs the ablations of PNrule's design choices (`experiments::ablations`).
//! Usage: `--scale <f> --seed <n> --out <dir> --threads <n> --no-resume`.
fn main() {
    pnr_experiments::run_main("ablations", pnr_experiments::experiments::ablations);
}
