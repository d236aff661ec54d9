//! Regenerates the section-4 r2l rp×rn grid of the paper. Usage: `--scale <f> --seed <n> --out <dir> --threads <n> --no-resume`.
use pnr_experiments::{experiments, run_main};

fn main() {
    run_main("table_r2l", |opts| {
        experiments::rp_rn_grid(opts, "r2l", &[0.95, 0.995], &[0.95, 0.995], false)
    });
}
