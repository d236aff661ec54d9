//! Regenerates the section-4 r2l.P1 rp×rn grid of the paper. Usage: `--scale <f> --seed <n> --out <dir> --threads <n> --no-resume`.
use pnr_experiments::{experiments, run_main};

fn main() {
    run_main("table_r2l_p1", |opts| {
        experiments::rp_rn_grid(opts, "r2l", &[0.95, 0.995], &[0.8, 0.9, 0.95, 0.995], true)
    });
}
