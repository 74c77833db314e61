//! The four workloads and the inputs each derives from the workload seed.
//!
//! Every workload runs on a fixed paper proxy from `cfcc_datasets`: the
//! seed never changes the graph. It drives the solver seed (solver
//! workloads) or the daemon's groundings, probe seeds and request order
//! (`serve-mixed`). The program receives only these generated inputs.

use cfcc_core::CfcmParams;
use cfcc_forest::sampler::splitmix64;
use cfcc_graph::{Graph, Node};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Worker threads for every solve (the benchmark machine has two cores).
pub const THREADS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median. The first runs
/// before the measured work, the others after it.
pub const SETUP_REPS: usize = 3;

/// A k-selection through `SolveSession::run`.
#[derive(Debug, Clone)]
pub struct SolverWorkload {
    pub name: &'static str,
    /// Registry name of the solver (`schur` or `approx`).
    pub solver: &'static str,
    pub dataset: &'static str,
    /// Proxy scale (1.0 = paper size; tests use small scales).
    pub scale: f64,
    pub k: usize,
    pub epsilon: f64,
    pub threads: usize,
}

/// An in-process daemon under a closed loop of `eval_group` reads with
/// periodic `load_graph` reloads.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    pub name: &'static str,
    pub dataset: &'static str,
    pub scale: f64,
    /// Concurrent client connections, each waiting for its reply.
    pub clients: usize,
    /// Distinct grounding sets the reads draw from.
    pub groundings: usize,
    /// Nodes per grounding set.
    pub group_size: usize,
    /// Hutchinson probes per read.
    pub probes: usize,
    /// Every `reload_every`-th request of a client is a reload.
    pub reload_every: usize,
    /// Daemon worker threads per solve.
    pub threads: usize,
}

#[derive(Debug, Clone)]
pub enum Workload {
    Solver(SolverWorkload),
    Serve(ServeWorkload),
}

impl Workload {
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Solver(w) => w.name,
            Workload::Serve(w) => w.name,
        }
    }

    /// The same workload on a small proxy, for tests.
    #[cfg(test)]
    pub fn toy(&self) -> Workload {
        match self {
            Workload::Solver(w) => Workload::Solver(SolverWorkload {
                scale: 0.06,
                k: 3,
                ..w.clone()
            }),
            Workload::Serve(w) => Workload::Serve(ServeWorkload {
                // Still above the dense limit, so reads take the
                // iterative, batched path.
                scale: 0.2,
                groundings: 4,
                group_size: 3,
                reload_every: 5,
                ..w.clone()
            }),
        }
    }
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload::Solver(SolverWorkload {
            name: "schur-hamsterster",
            solver: "schur",
            dataset: "hamsterster",
            scale: 1.0,
            k: 20,
            epsilon: 0.3,
            threads: THREADS,
        }),
        Workload::Solver(SolverWorkload {
            name: "schur-euroroads",
            solver: "schur",
            dataset: "euroroads",
            scale: 1.0,
            k: 20,
            epsilon: 0.3,
            threads: THREADS,
        }),
        Workload::Solver(SolverWorkload {
            name: "approx-caida",
            solver: "approx",
            dataset: "caida",
            scale: 1.0,
            // Not the paper's k = 20: those ~27 s runs spread by 8–19%
            // over ten seeds on the benchmark machine, k = 10 by 6–9%.
            k: 10,
            epsilon: 0.3,
            threads: THREADS,
        }),
        Workload::Serve(ServeWorkload {
            name: "serve-mixed",
            dataset: "hep-th",
            scale: 1.0,
            clients: 2,
            groundings: 16,
            group_size: 10,
            probes: 8,
            reload_every: 50,
            threads: THREADS,
        }),
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name() == name)
}

/// The proxy graph a workload runs on (independent of the seed).
pub fn proxy(dataset: &str, scale: f64) -> Graph {
    let spec = cfcc_datasets::spec(dataset).expect("workload names a registered dataset");
    cfcc_datasets::generate(spec, scale)
}

impl SolverWorkload {
    /// Solver parameters for workload seed `seed` and sub-seed `sub`
    /// (one per selection a run makes).
    pub fn params(&self, seed: u64, sub: u64) -> CfcmParams {
        CfcmParams::with_epsilon(self.epsilon)
            .seed(splitmix64(
                seed ^ 0x005E_1EC7 ^ sub.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ))
            .threads(self.threads)
    }
}

/// The daemon traffic generated from one workload seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePlan {
    /// Grounding sets (sorted, distinct nodes).
    pub groundings: Vec<Vec<Node>>,
    /// Probe seed per grounding: every read of a grounding sends the same
    /// probes, so its answers can be checked against one reference.
    pub probe_seeds: Vec<u64>,
    /// Per client, the grounding index of each read in send order (the
    /// loop wraps around when it runs past the end).
    pub reads: Vec<Vec<usize>>,
}

/// Reads generated per client before the sequence wraps around.
pub const READS_PER_CLIENT: usize = 4096;

impl ServeWorkload {
    /// Traffic for workload seed `seed` on an `n`-node graph.
    pub fn plan(&self, seed: u64, n: usize) -> ServePlan {
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x5E_2E));
        let groundings = (0..self.groundings)
            .map(|_| {
                let mut g: Vec<Node> = Vec::with_capacity(self.group_size);
                while g.len() < self.group_size {
                    let u = rng.gen_range(0..n) as Node;
                    if !g.contains(&u) {
                        g.push(u);
                    }
                }
                g.sort_unstable();
                g
            })
            .collect();
        let probe_seeds = (0..self.groundings).map(|_| rng.gen::<u64>()).collect();
        let reads = (0..self.clients)
            .map(|_| {
                (0..READS_PER_CLIENT)
                    .map(|_| rng.gen_range(0..self.groundings))
                    .collect()
            })
            .collect();
        ServePlan {
            groundings,
            probe_seeds,
            reads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(g: &Graph) -> Vec<(Node, Node)> {
        g.edges().collect()
    }

    #[test]
    fn names_are_the_four_workloads() {
        let names: Vec<_> = all().iter().map(Workload::name).collect();
        assert_eq!(
            names,
            [
                "schur-hamsterster",
                "schur-euroroads",
                "approx-caida",
                "serve-mixed"
            ]
        );
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn seed_changes_inputs_but_not_the_proxy_graph() {
        for w in all() {
            let w = w.toy();
            match &w {
                Workload::Solver(s) => {
                    let (a, b) = (proxy(s.dataset, s.scale), proxy(s.dataset, s.scale));
                    assert_eq!(edges(&a), edges(&b), "{}", s.name);
                    assert_ne!(s.params(1, 0).seed, s.params(2, 0).seed, "{}", s.name);
                    assert_ne!(s.params(1, 0).seed, s.params(1, 1).seed, "{}", s.name);
                    assert_eq!(s.params(1, 0).seed, s.params(1, 0).seed);
                }
                Workload::Serve(s) => {
                    let g = proxy(s.dataset, s.scale);
                    assert_eq!(edges(&g), edges(&proxy(s.dataset, s.scale)));
                    let n = g.num_nodes();
                    let (p1, p2) = (s.plan(1, n), s.plan(2, n));
                    assert_ne!(p1, p2);
                    assert_eq!(p1, s.plan(1, n));
                    for grp in &p1.groundings {
                        assert_eq!(grp.len(), s.group_size);
                        assert!(grp.windows(2).all(|w| w[0] < w[1]));
                        assert!(grp.iter().all(|&u| (u as usize) < n));
                    }
                    assert_eq!(p1.reads.len(), s.clients);
                }
            }
        }
    }
}
