//! Regenerates the section-4 probe rp×rn grid of the paper. Usage: `--scale <f> --seed <n> --out <dir> --threads <n> --no-resume`.
use pnr_experiments::{experiments, run_main};

fn main() {
    run_main("table_probe", |opts| {
        experiments::rp_rn_grid(opts, "probe", &[0.95, 0.995], &[0.8, 0.95, 0.995], false)
    });
}
