//! Seeded input generation: record picks, Zipf popularity, the Poisson
//! schedule, analysts and per-request seeds.
//!
//! Everything a run sends is derived here from the workload seed; the
//! program under test only ever sees the generated requests.

use crate::spec::Spec;
use pcor::service::{BatchItem, BatchReleaseRequest, ReleaseRequest};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::time::Duration;

/// Name the benchmark registers its dataset under.
pub const DATASET: &str = "data";

/// Independent sub-streams of one seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Candidate records for outlier discovery.
    Discovery,
    /// The open-loop request schedule.
    Schedule,
    /// Batches of closed-loop client `n`.
    Client(u64),
    /// Warm-up requests.
    Warmup,
}

/// A deterministic RNG for one sub-stream of `seed`.
pub fn rng(seed: u64, stream: Stream) -> ChaCha12Rng {
    let salt = match stream {
        Stream::Discovery => 0x0D15_C0DE,
        Stream::Schedule => 0x5C4E_D01E,
        Stream::Client(n) => 0xC11E_0000 + n,
        Stream::Warmup => 0x3A4B_0000,
    };
    ChaCha12Rng::seed_from_u64(seed.rotate_left(17) ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Cumulative Zipf weights over `n` ranks with exponent `s` (`s = 0` is
/// uniform).
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Draws a rank from a cumulative distribution.
pub fn draw(cdf: &[f64], rng: &mut ChaCha12Rng) -> usize {
    let u: f64 = rng.random();
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// One open-loop request and when it is due, relative to phase start.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Offset of the scheduled send from the start of the phase.
    pub due: Duration,
    /// The request to send.
    pub request: ReleaseRequest,
}

/// Builds one request of `spec` against `records`.
fn request(spec: &Spec, records: &[usize], cdf: &[f64], rng: &mut ChaCha12Rng) -> ReleaseRequest {
    let record = records[draw(cdf, rng)];
    let analyst = rng.random_range(0..spec.analysts);
    let (algorithm, samples) = spec.mix[rng.random_range(0..spec.mix.len())];
    ReleaseRequest::new(&format!("analyst-{analyst:02}"), DATASET, record)
        .with_detector(spec.detector)
        .with_algorithm(algorithm)
        .with_epsilon(spec.epsilon)
        .with_samples(samples)
        .with_seed(rng.random())
}

/// The Poisson schedule of an open-loop phase of length `span` at `rate`
/// arrivals per second: exactly `round(rate × span)` arrivals at sorted
/// uniform times, i.e. a Poisson process conditioned on its count, so the
/// offered load is the same under every seed.
pub fn schedule(
    spec: &Spec,
    records: &[usize],
    rate: f64,
    span: Duration,
    rng: &mut ChaCha12Rng,
) -> Vec<Planned> {
    let cdf = zipf_cdf(records.len(), spec.zipf);
    let count = (rate * span.as_secs_f64()).round() as usize;
    let mut times: Vec<f64> =
        (0..count).map(|_| rng.random::<f64>() * span.as_secs_f64()).collect();
    times.sort_by(f64::total_cmp);
    times
        .into_iter()
        .map(|at| Planned {
            due: Duration::from_secs_f64(at),
            request: request(spec, records, &cdf, rng),
        })
        .collect()
}

/// Warm-up requests: every record under every algorithm of the mix, from
/// a dedicated analyst, so caches are full before timing starts.
pub fn warmup(spec: &Spec, records: &[usize], rng: &mut ChaCha12Rng) -> Vec<ReleaseRequest> {
    let mut out = Vec::new();
    for &record in records {
        for &(algorithm, samples) in spec.mix {
            out.push(
                ReleaseRequest::new("warmup", DATASET, record)
                    .with_detector(spec.detector)
                    .with_algorithm(algorithm)
                    .with_epsilon(spec.epsilon)
                    .with_samples(samples)
                    .with_seed(rng.random()),
            );
        }
    }
    out
}

/// The next closed-loop batch of `items` items (batches carry one
/// algorithm: the first of the mix).
pub fn batch(
    spec: &Spec,
    records: &[usize],
    items: usize,
    rng: &mut ChaCha12Rng,
) -> BatchReleaseRequest {
    let cdf = zipf_cdf(records.len(), spec.zipf);
    let analyst = rng.random_range(0..spec.analysts);
    let (algorithm, samples) = spec.mix[0];
    let items = (0..items)
        .map(|_| {
            BatchItem::new(records[draw(&cdf, rng)])
                .with_epsilon(spec.epsilon)
                .with_samples(samples)
                .with_seed(rng.random())
        })
        .collect();
    BatchReleaseRequest::new(&format!("analyst-{analyst:02}"), DATASET)
        .with_detector(spec.detector)
        .with_algorithm(algorithm)
        .with_items(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::named("bfs_heavy").unwrap()
    }

    fn plan(seed: u64, rate: f64, secs: u64, records: &[usize]) -> Vec<Planned> {
        schedule(
            &spec(),
            records,
            rate,
            Duration::from_secs(secs),
            &mut rng(seed, Stream::Schedule),
        )
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let records = [3, 5, 8, 13];
        let a = plan(7, 90.0, 2, &records);
        assert_eq!(a, plan(7, 90.0, 2, &records));
        assert_ne!(a, plan(8, 90.0, 2, &records));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|p| records.contains(&p.request.record_id)));
    }

    #[test]
    fn schedule_offers_exactly_the_nominal_rate() {
        let a = plan(1, 100.0, 60, &[1, 2]);
        assert_eq!(a.len(), 6_000);
        let mean_gap = a.last().unwrap().due.as_secs_f64() / a.len() as f64;
        assert!((mean_gap - 0.01).abs() < 1e-3, "mean gap {mean_gap}");
    }

    #[test]
    fn batches_are_deterministic_per_client() {
        let records = [2, 4, 6, 8];
        let spec = Spec::named("batch_repeat").unwrap();
        let a = batch(&spec, &records, 16, &mut rng(3, Stream::Client(0)));
        assert_eq!(a, batch(&spec, &records, 16, &mut rng(3, Stream::Client(0))));
        assert_ne!(a, batch(&spec, &records, 16, &mut rng(3, Stream::Client(1))));
        assert_eq!(a.items.len(), 16);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let cdf = zipf_cdf(16, 1.0);
        assert!((cdf[15] - 1.0).abs() < 1e-12);
        assert!(cdf[0] > 0.25 && cdf[0] < 0.35);
        let uniform = zipf_cdf(4, 0.0);
        assert!((uniform[1] - 0.5).abs() < 1e-12);
    }
}
