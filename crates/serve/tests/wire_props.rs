//! Seeded properties of the daemon's wire types: every request and every
//! `stats` reply survives an encode/decode round trip, and damaged lines
//! (byte flips, truncation, splices of valid lines) never panic the
//! decoders — anything they accept re-encodes to a line that decodes to
//! the same value.

mod common;

use common::{mutate, request, text};
use pnr_core::ArtifactLineage;
use pnr_serve::parse_request;
use pnr_serve::protocol::{Counters, EpochInfo, LatencySummary, Mode, PFirstMatch, Request, Stats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn latency(rng: &mut StdRng) -> LatencySummary {
    let count = rng.gen();
    // percentiles are log2 bucket bounds in milliseconds, or absent
    let mut bound = || {
        rng.gen_bool(0.8)
            .then(|| (1u64 << rng.gen_range(0..64u32)) as f64 / 1e6)
    };
    LatencySummary {
        count,
        p50_ms: bound(),
        p95_ms: bound(),
        p99_ms: bound(),
    }
}

fn stats(rng: &mut StdRng) -> Stats {
    let mode = if rng.gen() {
        Mode::Degraded
    } else {
        Mode::Normal
    };
    Stats {
        epoch: rng.gen(),
        mode,
        degraded_reason: (mode == Mode::Degraded).then(|| text(rng)),
        active_checksum: text(rng),
        lineage: rng.gen_bool(0.5).then(|| ArtifactLineage {
            parent_checksum: text(rng),
            window_id: rng.gen(),
            verdict: text(rng),
        }),
        queue_len: rng.gen(),
        queue_capacity: rng.gen(),
        shed_policy: text(rng),
        workers: rng.gen(),
        workers_alive: rng.gen(),
        worker_respawns: rng.gen(),
        pending: rng.gen(),
        counters: Counters::from_fn(|_| rng.gen()),
        epochs: (0..rng.gen_range(0..4usize))
            .map(|_| EpochInfo {
                epoch: rng.gen(),
                served: rng.gen(),
                source: text(rng),
                checksum: text(rng),
            })
            .collect(),
        score_hist: (0..rng.gen_range(0..21usize)).map(|_| rng.gen()).collect(),
        p_first_match: PFirstMatch {
            bins: (0..rng.gen_range(0..33usize)).map(|_| rng.gen()).collect(),
            none: rng.gen(),
        },
        request_latency: latency(rng),
        swap_latency: latency(rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_and_stats_round_trip_through_their_lines(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = request(&mut rng);
        prop_assert_eq!(parse_request(&r.to_line()), Ok(r.clone()), "line {}", r.to_line());
        let s = stats(&mut rng);
        prop_assert_eq!(Stats::parse(&s.to_line()), Ok(s.clone()), "line {}", s.to_line());
    }

    #[test]
    fn damaged_lines_decode_to_values_that_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lines = [request(&mut rng).to_line(), stats(&mut rng).to_line()];
        for (i, line) in lines.iter().enumerate() {
            let damaged = mutate(&mut rng, line, &lines[1 - i]);
            if let Ok(r) = parse_request(&damaged) {
                prop_assert_eq!(parse_request(&r.to_line()), Ok(r), "from {:?}", damaged);
            }
            if let Ok(s) = Stats::parse(&damaged) {
                prop_assert_eq!(Stats::parse(&s.to_line()), Ok(s), "from {:?}", damaged);
            }
        }
    }
}
