//! The four workloads and the seeded traffic they run.
//!
//! Everything a run consumes is derived from `--seed`: the dataset
//! materialisation, the hot-batch choice, each request's node ids and each
//! Poisson inter-arrival gap. Request `i` is a pure function of
//! `(seed, i)`, so two runs with one seed send identical traffic however
//! fast the program serves it.

use qgtc_core::graph::DatasetProfile;
use qgtc_core::partition::PartitionBatcher;
use qgtc_core::{ModelKind, QgtcConfig};

/// What a workload times as its unit of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Timed calls of `run_epoch_with_plan` over a plan built in setup.
    Epoch,
    /// Open-loop Poisson requests against one `QgtcSession`.
    Serve(ServeSpec),
}

/// Which nodes a serving request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every request draws its nodes from one of `hot_batches` seeded
    /// batches, picked with probability proportional to its size (a uniform
    /// node of the hot set, then the rest of the request from its batch), so
    /// the plan's few tiny partitions do not make a class of cheap requests.
    Hot { hot_batches: usize },
    /// Every request draws its nodes uniformly from the whole graph.
    Scatter,
}

/// The serving side of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSpec {
    pub traffic: Traffic,
    pub nodes_per_request: usize,
    /// Poisson arrival rate of the latency measurement, requests per second.
    pub nominal_rps: f64,
    /// Latency limit of the rate search, on the p90 latency.
    pub limit_ms: f64,
    /// Rate-search bracket, requests per second (log bisection).
    pub search_rps: (f64, f64),
    pub search_steps: usize,
    /// Requests one session answers before a fresh one replaces it: every
    /// search step is one round, and the nominal phase repeats rounds.
    /// Fixed so that the work (and the buffer-pool growth) of a session
    /// does not depend on how fast the program serves.
    pub round_requests: u64,
}

/// One benchmark workload: inputs, configuration and measurement protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub profile: DatasetProfile,
    pub scale: f64,
    pub partitions: usize,
    pub per_batch: usize,
    pub model: ModelKind,
    pub bits: u32,
    pub mode: Mode,
    /// Untimed epochs (or serving warm-up passes) before measuring.
    pub warmup: usize,
    /// Epochs (each followed by a stage replay) of the traced pass.
    pub traced_epochs: usize,
}

pub const NAMES: [&str; 4] = [
    "epoch-gcn-arxiv",
    "epoch-gin-products",
    "serve-community-hot",
    "serve-scatter-cold",
];

impl Workload {
    /// The named workload at benchmark size, or `None` for an unknown name.
    pub fn by_name(name: &str) -> Option<Self> {
        let epoch = |name, profile, scale, partitions, model, bits| Workload {
            name,
            profile,
            scale,
            partitions,
            per_batch: 8,
            model,
            bits,
            mode: Mode::Epoch,
            warmup: 3,
            traced_epochs: 10,
        };
        let serve = |name, spec| Workload {
            name,
            profile: DatasetProfile::OGBN_ARXIV,
            scale: 0.2,
            partitions: 300,
            per_batch: 1,
            model: ModelKind::ClusterGcn,
            bits: 2,
            mode: Mode::Serve(spec),
            warmup: 1,
            traced_epochs: 5,
        };
        Some(match name {
            "epoch-gcn-arxiv" => epoch(
                "epoch-gcn-arxiv",
                DatasetProfile::OGBN_ARXIV,
                0.1,
                150,
                ModelKind::ClusterGcn,
                2,
            ),
            "epoch-gin-products" => epoch(
                "epoch-gin-products",
                DatasetProfile::OGBN_PRODUCTS,
                0.003,
                60,
                ModelKind::BatchedGin,
                4,
            ),
            "serve-community-hot" => serve(
                "serve-community-hot",
                ServeSpec {
                    traffic: Traffic::Hot { hot_batches: 32 },
                    nodes_per_request: 16,
                    nominal_rps: 500.0,
                    limit_ms: 5.0,
                    search_rps: (250.0, 8000.0),
                    search_steps: 6,
                    round_requests: 2000,
                },
            ),
            "serve-scatter-cold" => serve(
                "serve-scatter-cold",
                ServeSpec {
                    traffic: Traffic::Scatter,
                    nodes_per_request: 16,
                    nominal_rps: 20.0,
                    limit_ms: 60.0,
                    search_rps: (5.0, 160.0),
                    search_steps: 6,
                    round_requests: 120,
                },
            ),
            _ => return None,
        })
    }

    /// The same workload shrunk to a smoke test: a tiny graph, a handful of
    /// batches and one warm-up pass, so a debug build finishes in seconds.
    pub fn quick(mut self) -> Self {
        self.scale = match self.profile.name {
            "ogbn-products" => 0.0002,
            _ => 0.005,
        };
        self.partitions = 8;
        self.per_batch = self.per_batch.min(4);
        self.warmup = 1;
        self.traced_epochs = 2;
        if let Mode::Serve(spec) = &mut self.mode {
            spec.search_steps = 2;
            spec.round_requests = 20;
            if let Traffic::Hot { hot_batches } = &mut spec.traffic {
                *hot_batches = 4;
            }
        }
        self
    }

    /// The default `QgtcConfig` at this workload's model, bits and partitioning.
    pub fn config(&self) -> QgtcConfig {
        QgtcConfig::qgtc(self.model, self.bits).with_partitions(self.partitions, self.per_batch)
    }
}

/// SplitMix64 finaliser: a well-mixed 64-bit value from any input.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The dataset materialisation seed for a run seed.
pub fn dataset_seed(seed: u64) -> u64 {
    mix(seed ^ 0xD47A)
}

/// Seeded request source over one batch plan.
#[derive(Debug, Clone)]
pub struct TrafficGen {
    seed: u64,
    nodes_per_request: usize,
    /// Candidate node pools: one per hot batch, or a single pool of every
    /// node the plan covers for scattered traffic.
    pools: Vec<Vec<usize>>,
    /// Running total of pool sizes: pool `p` owns picks below `ends[p]`.
    ends: Vec<u64>,
}

impl TrafficGen {
    pub fn new(seed: u64, spec: &ServeSpec, plan: &PartitionBatcher) -> Self {
        let seed = mix(seed ^ 0x074A_FF1C);
        let pools = match spec.traffic {
            Traffic::Hot { hot_batches } => {
                // Seeded partial Fisher-Yates over the plan's batch indices.
                let mut order: Vec<usize> = (0..plan.num_batches()).collect();
                let take = hot_batches.min(order.len());
                for i in 0..take {
                    let j = i + (mix(seed ^ ((i as u64) << 1)) as usize) % (order.len() - i);
                    order.swap(i, j);
                }
                order.truncate(take);
                order
                    .iter()
                    .map(|&b| {
                        plan.batch(b)
                            .expect("index < num_batches")
                            .partitions
                            .concat()
                    })
                    .collect()
            }
            Traffic::Scatter => vec![plan.batches().flat_map(|b| b.partitions.concat()).collect()],
        };
        let ends = pools
            .iter()
            .scan(0u64, |total, pool: &Vec<usize>| {
                *total += pool.len() as u64;
                Some(*total)
            })
            .collect();
        Self {
            seed,
            nodes_per_request: spec.nodes_per_request,
            pools,
            ends,
        }
    }

    /// Every node this traffic can ask for, once each: one request over
    /// them warms a fresh session's payload cache and buffer pool.
    pub fn warm_nodes(&self) -> Vec<usize> {
        self.pools.concat()
    }

    /// Request `index`'s node ids, written into `out` (cleared first).
    pub fn fill(&self, index: u64, out: &mut Vec<usize>) {
        out.clear();
        let base = mix(self.seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
        let total = *self.ends.last().expect("a plan covers at least one node");
        let pool = &self.pools[self.ends.partition_point(|&end| end <= base % total)];
        for k in 0..self.nodes_per_request as u64 {
            let r = mix(base ^ (k + 1).wrapping_mul(0x9FB2_1C65_1E98_DF25));
            out.push(pool[(r % pool.len() as u64) as usize]);
        }
    }

    /// Poisson inter-arrival gap before request `index`, in milliseconds.
    pub fn gap_ms(&self, index: u64, rps: f64) -> f64 {
        let r = mix(self.seed ^ 0x6A9 ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        // 53 uniform bits in (0, 1]; -ln(u) is Exp(1).
        let u = ((r >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        -u.ln() * 1e3 / rps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgtc_core::serve::ServeOptions;
    use qgtc_core::try_build_plan;

    fn quick_plan(name: &str) -> (Workload, PartitionBatcher) {
        let w = Workload::by_name(name).unwrap().quick();
        let dataset = w.profile.materialize(w.scale, dataset_seed(3));
        let (plan, _) = try_build_plan(&dataset, &w.config()).unwrap();
        (w, plan)
    }

    fn spec(w: &Workload) -> ServeSpec {
        match w.mode {
            Mode::Serve(spec) => spec,
            Mode::Epoch => panic!("serving workload expected"),
        }
    }

    #[test]
    fn every_name_resolves_and_unknown_names_do_not() {
        for name in NAMES {
            assert_eq!(Workload::by_name(name).unwrap().name, name);
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn generator_is_pure_in_seed_and_index() {
        let (w, plan) = quick_plan("serve-scatter-cold");
        let a = TrafficGen::new(9, &spec(&w), &plan);
        let b = TrafficGen::new(9, &spec(&w), &plan);
        let other = TrafficGen::new(10, &spec(&w), &plan);
        let (mut x, mut y) = (Vec::new(), Vec::new());
        // Out of order on one side: request i does not depend on i - 1.
        for i in [5u64, 0, 3, 1_000_000] {
            a.fill(i, &mut x);
            b.fill(i, &mut y);
            assert_eq!(x, y);
            assert_eq!(x.len(), 16);
            assert_eq!(a.gap_ms(i, 20.0), b.gap_ms(i, 20.0));
            assert!(a.gap_ms(i, 20.0) > 0.0);
        }
        let differs = (0..8u64).any(|i| {
            a.fill(i, &mut x);
            other.fill(i, &mut y);
            x != y
        });
        assert!(differs, "the seed changes the traffic");
    }

    #[test]
    fn hot_working_set_fits_the_payload_cache() {
        let w = Workload::by_name("serve-community-hot").unwrap();
        let dataset = w.profile.materialize(0.05, dataset_seed(1));
        let config = w.config().with_partitions(80, 1);
        let (plan, _) = try_build_plan(&dataset, &config).unwrap();
        let traffic = TrafficGen::new(1, &spec(&w), &plan);
        let mut batch_of = vec![usize::MAX; dataset.graph.num_nodes()];
        for batch in plan.batches() {
            for node in batch.partitions.concat() {
                batch_of[node] = batch.batch_index;
            }
        }
        let mut touched = std::collections::BTreeSet::new();
        let mut nodes = Vec::new();
        for i in 0..5_000 {
            traffic.fill(i, &mut nodes);
            let first = batch_of[nodes[0]];
            assert!(
                nodes.iter().all(|&n| batch_of[n] == first),
                "one batch per request"
            );
            touched.insert(first);
        }
        // Size-weighted picks may never reach a one-node batch, but nothing
        // outside the 32 hot batches is ever asked for.
        assert!(
            (24..=32).contains(&touched.len()),
            "{} batches",
            touched.len()
        );
        assert!(touched.len() <= ServeOptions::default().cache_capacity);
    }

    #[test]
    fn poisson_gaps_have_the_requested_mean() {
        let (w, plan) = quick_plan("serve-scatter-cold");
        let traffic = TrafficGen::new(4, &spec(&w), &plan);
        let n = 20_000;
        let mean = (0..n).map(|i| traffic.gap_ms(i, 500.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.06, "mean gap {mean} ms at 500 rps");
    }
}
