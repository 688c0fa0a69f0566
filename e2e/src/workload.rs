//! The four workloads: their sizes, engine configuration and seeded op
//! streams. The generator sees the seed; the engine only ever sees the
//! statements it produces.

use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::EngineConfig;
use aib_index::Coverage;
use aib_storage::DEFAULT_ENTRY_FOOTPRINT;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const TABLE: &str = "t";
pub const COLUMNS: [&str; 3] = ["A", "B", "C"];

/// Reads per phase; the dominant column rotates at every phase boundary.
pub const PHASE_READS: usize = 300;
/// Fresh hot values drawn per column at every phase boundary.
pub const HOT_VALUES: usize = 12;
/// Phases run before the measured window on the phased workloads.
pub const WARMUP_PHASES: usize = 3;
/// Width of each client's private key ranges (one below the covered range,
/// one above the table's domain). Narrow enough that private keys repeat.
pub const PRIVATE_KEYS: i64 = 4096;
/// Rows of its own each client inserts during set-up, so updates and
/// deletes have targets from the first measured op.
pub const PRELOAD_PER_CLIENT: usize = 500;
/// Tuples per `execute_batch` while loading.
pub const LOAD_BATCH: usize = 256;
/// Rows per 8 KiB page of the paper's schema, for sizing before the load.
const ROWS_PER_PAGE: f64 = 27.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    Shift,
    ReadMix,
    WriteDurable,
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Shift,
        Workload::ReadMix,
        Workload::WriteDurable,
        Workload::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Shift => "shift",
            Workload::ReadMix => "read_mix",
            Workload::WriteDurable => "write_durable",
            Workload::Mixed => "mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (`BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Shift => "1 client, phased reads with a rotating hot column, pool an eighth of the table: the paper's shift; core + tuner + index adaptation over the pool-miss path; no log",
            Workload::ReadMix => "2 clients, read-only steady state with skippability pinned: scan kernel, snapshot planning, index lookups; adaptation and WAL bypassed",
            Workload::WriteDurable => "2 clients, DML only on the durable backend: WAL, group commit, fsync wait, checkpoints, Table I maintenance; no scan runs",
            Workload::Mixed => "2 clients, 80% phased reads + 20% durable DML at once on a resident table: readers vs writers on the same locks, epochs and checkpoints",
        }
    }

    /// Whether reads come in phases with a rotating dominant column.
    pub fn phased(self) -> bool {
        matches!(self, Workload::Shift | Workload::Mixed)
    }

    /// Whether the stream contains DML.
    pub fn writes(self) -> bool {
        matches!(self, Workload::WriteDurable | Workload::Mixed)
    }

    /// Whether the stream contains queries.
    pub fn reads(self) -> bool {
        self != Workload::WriteDurable
    }
}

/// Ops per client and second of `--seconds`, frozen from a calibration on
/// the 2-core sandbox so that a window lasts about `--seconds` there. Op
/// *counts* are fixed rather than the duration, so that single-client
/// counters repeat exactly; a faster engine finishes the same work sooner.
fn ops_per_client_second(workload: Workload) -> f64 {
    match workload {
        // Phases per second × reads per phase.
        Workload::Shift => 2.75 * PHASE_READS as f64,
        Workload::ReadMix => 850.0,
        Workload::WriteDurable => 2900.0,
        Workload::Mixed => 650.0,
    }
}

/// Everything one run of one workload is sized by.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub quick: bool,
    pub rows: u64,
    pub domain: i64,
    pub clients: usize,
    /// Measured ops per client (after the warm-up prefix of the stream).
    pub ops_per_client: usize,
    /// Leading ops of each client's stream run as warm-up during set-up.
    pub warmup_per_client: usize,
    pub est_pages: usize,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, seconds: f64, quick: bool) -> Plan {
        let rows: u64 = match workload {
            Workload::Shift | Workload::WriteDurable | Workload::Mixed => 50_000,
            Workload::ReadMix => 100_000,
        };
        let rows = if quick { rows / 20 } else { rows };
        let clients = if workload == Workload::Shift { 1 } else { 2 };
        let mut ops = (ops_per_client_second(workload) * seconds).round() as usize;
        if quick {
            ops = match workload {
                Workload::Shift | Workload::Mixed => 4 * PHASE_READS,
                Workload::ReadMix | Workload::WriteDurable => 1500,
            };
        }
        if workload == Workload::Shift && !quick {
            // Whole rotations A→B→C, so every column dominates equally often
            // whatever `--seconds` is.
            ops = (ops / (3 * PHASE_READS)).max(1) * 3 * PHASE_READS;
        }
        let warmup_per_client = match workload {
            Workload::Shift => WARMUP_PHASES * PHASE_READS,
            // One phase of reads plus the DML that rides along with them.
            Workload::Mixed => PHASE_READS * 5 / 4,
            // Nothing adapts; this only warms caches.
            Workload::ReadMix => 200,
            // Warms up by condition, not by a stream prefix.
            Workload::WriteDurable => 0,
        };
        let warmup_per_client = if quick {
            warmup_per_client.min(PHASE_READS)
        } else {
            warmup_per_client
        };
        Plan {
            workload,
            seed,
            quick,
            rows,
            domain: (rows as i64 / 10).max(10),
            clients,
            ops_per_client: ops.max(1),
            warmup_per_client,
            est_pages: (rows as f64 / ROWS_PER_PAGE).ceil() as usize,
        }
    }

    /// Highest covered value of column `col` on the range-covered
    /// workloads. `write_durable` covers the bottom tenth of the domain, as
    /// in the paper. `read_mix` pins skippability by coverage instead of by
    /// buffer contents (see [`Plan::index_def`]): all of A, half of B, a
    /// tenth of C.
    pub fn covered_hi(&self, col: usize) -> i64 {
        match (self.workload, col) {
            (Workload::ReadMix, 0) => self.domain,
            (Workload::ReadMix, 1) => self.domain / 2,
            _ => self.domain / 10,
        }
    }

    /// The partial index of column `col`: its DDL-time coverage, whether it
    /// has an Index Buffer, and whether a tuner adapts it.
    ///
    /// * `shift`: empty set coverage, buffers and tuners on all three.
    /// * `mixed`: the same, tuner on A only.
    /// * `write_durable`: range coverage of the bottom tenth; A and B
    ///   buffered, C not.
    /// * `read_mix`: range coverage of all of A, half of B and a tenth of C,
    ///   over a table ordered so that B's covered rows come first, with a
    ///   zero-byte buffer space. Every page is then skippable for A, the
    ///   first half for B, and nothing ever adapts: a steady state that a
    ///   bounded buffer space does not reach, because Algorithm 2's victim
    ///   selection is probabilistic and two buffers that both want the
    ///   last half column keep displacing each other.
    pub fn index_def(&self, col: usize) -> IndexDef {
        let range = |buffered| IndexDef {
            coverage: Coverage::IntRange {
                lo: COVERED_LO,
                hi: self.covered_hi(col),
            },
            buffered,
            tuned: false,
        };
        match self.workload {
            Workload::Shift => IndexDef {
                coverage: Coverage::empty_set(),
                buffered: true,
                tuned: true,
            },
            Workload::Mixed => IndexDef {
                coverage: Coverage::empty_set(),
                buffered: true,
                tuned: col == 0,
            },
            Workload::ReadMix | Workload::WriteDurable => range(col < 2),
        }
    }

    /// `EngineConfig::default()` except the sizes the workload states.
    pub fn engine_config(&self) -> EngineConfig {
        let column_bytes = self.rows as usize * DEFAULT_ENTRY_FOOTPRINT;
        let (pool_frames, space_bytes) = match self.workload {
            // The workload larger than the engine's cache: the pool holds an
            // eighth of the table, so every page a scan does not skip is a
            // pool miss served by `FileBackend`. 1.25 columns of buffer for
            // three columns.
            Workload::Shift => ((self.est_pages / 8).max(16), column_bytes * 5 / 4),
            // Buffers pinned empty: skippability comes from coverage alone.
            Workload::ReadMix => (self.est_pages * 5 / 4 + 64, 0),
            // Room for the table to grow by the inserts of the window.
            Workload::WriteDurable => (self.est_pages * 3 + 64, column_bytes * 3 / 2),
            // The issue puts the eighth-of-the-table pool here. With a pool
            // that evicts, two clients and DML the engine loses acked
            // writes: `BufferPool` unmaps a dirty victim before its
            // write-back reaches the backend, and a concurrent fetch of that
            // page reads the stale image (`tests/pool_eviction_race.rs`
            // reproduces it on `aib-storage` alone). Until that is fixed
            // this pool holds the table and its growth, and the small pool
            // sits on `shift`, whose one client never dirties a heap page.
            Workload::Mixed => (self.est_pages * 3 / 2 + 64, column_bytes * 5 / 4),
        };
        EngineConfig {
            pool_frames,
            space: SpaceConfig {
                max_bytes: Some(space_bytes),
                i_max: (self.est_pages as u32 / 10).max(1),
                ..SpaceConfig::default()
            },
            // The default is the host's cores. Two clients with two scan
            // workers each would be four busy threads on the sandbox's two
            // cores; and on `shift` two workers pinning through a pool that
            // evicts make the pool's hit/miss split depend on how they
            // interleave (and are a third slower than one). One scan thread
            // per query keeps every single-client count exact.
            scan_threads: 1,
            ..EngineConfig::default()
        }
    }

    /// Index Buffer parameters of every buffered column. The partition
    /// extent `P` scales with the table (the paper runs `P = 10,000` pages
    /// against about 18,000): with the default extent a table of a few
    /// thousand pages would be one partition per buffer, and displacement
    /// could only ever drop a column's whole buffer.
    pub fn buffer_config(&self) -> BufferConfig {
        BufferConfig {
            partition_pages: (self.est_pages as u32 / 8).max(1),
            ..BufferConfig::default()
        }
    }

    /// The private key range of `client` above the table's domain (never
    /// covered by a range index).
    pub fn private_uncovered(&self, client: usize) -> (i64, i64) {
        let lo = self.domain + 1 + client as i64 * PRIVATE_KEYS;
        (lo, lo + PRIVATE_KEYS - 1)
    }

    /// The private key range of `client` below zero (covered by the range
    /// indexes, whose lower bound is [`COVERED_LO`]).
    pub fn private_covered(&self, client: usize) -> (i64, i64) {
        let hi = -1 - client as i64 * PRIVATE_KEYS;
        (hi - PRIVATE_KEYS + 1, hi)
    }
}

pub struct IndexDef {
    pub coverage: Coverage,
    pub buffered: bool,
    pub tuned: bool,
}

/// Lower bound of the range coverage: far enough below zero to take in every
/// client's private covered keys.
pub const COVERED_LO: i64 = -1_000_000;

/// One statement of a client's stream. Update and delete targets, and the
/// key of an own-key read, are picked from the client's live rows when the
/// op runs (`pick` modulo their number), because rids exist only then.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Point {
        col: u8,
        value: i64,
    },
    Range {
        col: u8,
        lo: i64,
        hi: i64,
    },
    PointOwn {
        col: u8,
        pick: u32,
    },
    Insert {
        vals: [i64; 3],
        payload: u16,
    },
    Update {
        pick: u32,
        vals: [i64; 3],
        payload: u16,
    },
    Delete {
        pick: u32,
    },
}

/// Marks a read that belongs to no phase.
pub const NO_PHASE: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    pub op: Op,
    /// Phase of a phased read ([`NO_PHASE`] otherwise) and its position in it.
    pub phase: u32,
    pub at: u16,
}

fn mix(seed: u64, salt: u64) -> u64 {
    // SplitMix64 finaliser: decorrelates the per-purpose RNG seeds.
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The hot values of `phase`, per column. A function of seed and phase
/// only: all clients of a run query the same hot set.
fn hot_values(plan: &Plan, phase: u32) -> [[i64; HOT_VALUES]; 3] {
    let mut rng = StdRng::seed_from_u64(mix(plan.seed, 0x407 + u64::from(phase)));
    let mut hot = [[0; HOT_VALUES]; 3];
    for column in &mut hot {
        for i in 0..HOT_VALUES {
            // Distinct within the column, so each hot value has its own
            // share of the phase's queries.
            column[i] = loop {
                let v = rng.gen_range(1..=plan.domain);
                if !column[..i].contains(&v) {
                    break v;
                }
            };
        }
    }
    hot
}

struct DmlGen {
    covered: (i64, i64),
    uncovered: (i64, i64),
    use_covered: bool,
}

impl DmlGen {
    fn new(plan: &Plan, client: usize) -> DmlGen {
        DmlGen {
            covered: plan.private_covered(client),
            uncovered: plan.private_uncovered(client),
            // `mixed` indexes with set coverage, which covers no private key.
            use_covered: plan.workload == Workload::WriteDurable,
        }
    }

    fn vals(&self, rng: &mut StdRng) -> [i64; 3] {
        let mut vals = [0; 3];
        for v in &mut vals {
            let (lo, hi) = if self.use_covered && rng.gen_bool(0.5) {
                self.covered
            } else {
                self.uncovered
            };
            *v = rng.gen_range(lo..=hi);
        }
        vals
    }

    /// 40 % insert, 40 % update, 20 % delete.
    fn op(&self, rng: &mut StdRng) -> Op {
        let roll = rng.gen_range(0..10u32);
        let pick = rng.gen_range(0..u32::MAX);
        let payload = rng.gen_range(1..=512u16);
        match roll {
            0..=3 => Op::Insert {
                vals: self.vals(rng),
                payload,
            },
            4..=7 => Op::Update {
                pick,
                vals: self.vals(rng),
                payload,
            },
            _ => Op::Delete { pick },
        }
    }
}

/// The phased read generator of `shift` and `mixed`: weights 4:1:1 with the
/// dominant column rotating A→B→C→A, values from the phase's hot set.
struct PhasedReads {
    phase: u32,
    at: usize,
    hot: [[i64; HOT_VALUES]; 3],
}

impl PhasedReads {
    fn new(plan: &Plan) -> Self {
        PhasedReads {
            phase: 0,
            at: 0,
            hot: hot_values(plan, 0),
        }
    }

    fn next(&mut self, plan: &Plan, rng: &mut StdRng) -> Step {
        if self.at == PHASE_READS {
            self.phase += 1;
            self.at = 0;
            self.hot = hot_values(plan, self.phase);
        }
        let dominant = (self.phase % 3) as usize;
        let roll = rng.gen_range(0..6u32);
        let col = match roll {
            0..=3 => dominant,
            4 => (dominant + 1) % 3,
            _ => (dominant + 2) % 3,
        };
        let value = self.hot[col][rng.gen_range(0..HOT_VALUES)];
        let step = Step {
            op: Op::Point {
                col: col as u8,
                value,
            },
            phase: self.phase,
            at: self.at as u16,
        };
        self.at += 1;
        step
    }
}

fn unphased(op: Op) -> Step {
    Step {
        op,
        phase: NO_PHASE,
        at: 0,
    }
}

/// The read-only mix of `read_mix`: 30 % covered (partial-index hits),
/// 45 % uncovered A (every page skippable, empty buffer: the lock-free
/// fast path), 17 % uncovered B (sweeps the half of the table its coverage
/// leaves), 8 % uncovered C (no buffer: plain scan). The shares keep p50
/// inside one of the two cheap classes (their boundary is at 30 % or 45 %)
/// and p95 inside the plain-scan class (92–100 %), away from the boundaries
/// where a percentile would jump between two latencies from run to run.
fn read_mix_op(plan: &Plan, rng: &mut StdRng) -> Op {
    match rng.gen_range(0..100u32) {
        0..=29 => {
            let col = rng.gen_range(0..3u8);
            let hi = plan.covered_hi(col as usize);
            // Three points to one short range.
            if rng.gen_range(0..4u32) == 0 {
                let lo = rng.gen_range(1..=(hi - 8).max(1));
                Op::Range {
                    col,
                    lo,
                    hi: (lo + 7).min(hi),
                }
            } else {
                Op::Point {
                    col,
                    value: rng.gen_range(1..=hi),
                }
            }
        }
        // All of A's values are covered, so an uncovered key lies above the
        // domain and matches nothing.
        30..=74 => Op::Point {
            col: 0,
            value: plan.domain + 1 + rng.gen_range(0..1000i64),
        },
        75..=91 => Op::Point {
            col: 1,
            value: rng.gen_range(plan.covered_hi(1) + 1..=plan.domain),
        },
        _ => Op::Point {
            col: 2,
            value: rng.gen_range(plan.covered_hi(2) + 1..=plan.domain),
        },
    }
}

/// The stream of one client: warm-up prefix followed by the measured ops.
pub fn client_stream(plan: &Plan, client: usize) -> Vec<Step> {
    let total = plan.warmup_per_client + plan.ops_per_client;
    let mut rng = StdRng::seed_from_u64(mix(plan.seed, 0xC11E + client as u64));
    let dml = DmlGen::new(plan, client);
    let mut phased = PhasedReads::new(plan);
    (0..total)
        .map(|_| match plan.workload {
            Workload::Shift => phased.next(plan, &mut rng),
            Workload::ReadMix => unphased(read_mix_op(plan, &mut rng)),
            Workload::WriteDurable => unphased(dml.op(&mut rng)),
            Workload::Mixed => {
                if rng.gen_range(0..5u32) == 0 {
                    unphased(dml.op(&mut rng))
                } else {
                    let step = phased.next(plan, &mut rng);
                    // Every tenth read asks for one of the client's own
                    // keys, so DML is checked through the read paths too.
                    if rng.gen_range(0..10u32) == 0 {
                        Step {
                            op: Op::PointOwn {
                                col: rng.gen_range(0..3u8),
                                pick: rng.gen_range(0..u32::MAX),
                            },
                            ..step
                        }
                    } else {
                        step
                    }
                }
            }
        })
        .collect()
}

/// The values of the rows each client inserts during set-up.
pub fn preload_rows(plan: &Plan, client: usize) -> Vec<([i64; 3], u16)> {
    if !plan.workload.writes() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(mix(plan.seed, 0x9E10 + client as u64));
    let dml = DmlGen::new(plan, client);
    let n = if plan.quick { 50 } else { PRELOAD_PER_CLIENT };
    (0..n)
        .map(|_| (dml.vals(&mut rng), rng.gen_range(1..=512u16)))
        .collect()
}

/// Warm-up queries of `write_durable`: uncovered keys of column A, from
/// their own seeded stream.
pub fn warmup_values(plan: &Plan, n: usize) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(mix(plan.seed, 0x3A20));
    (0..n)
        .map(|_| rng.gen_range(plan.covered_hi(0) + 1..=plan.domain))
        .collect()
}

/// FNV-1a over a canonical encoding of the streams: two runs executed the
/// same statements exactly when their hashes agree.
pub fn stream_hash(streams: &[Vec<Step>]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut feed = |words: &[i64]| {
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (client, stream) in streams.iter().enumerate() {
        feed(&[client as i64, stream.len() as i64]);
        for step in stream {
            feed(&[i64::from(step.phase), i64::from(step.at)]);
            match &step.op {
                Op::Point { col, value } => feed(&[1, i64::from(*col), *value]),
                Op::Range { col, lo, hi } => feed(&[2, i64::from(*col), *lo, *hi]),
                Op::PointOwn { col, pick } => feed(&[3, i64::from(*col), i64::from(*pick)]),
                Op::Insert { vals, payload } => {
                    feed(&[4, i64::from(*payload), vals[0], vals[1], vals[2]]);
                }
                Op::Update {
                    pick,
                    vals,
                    payload,
                } => feed(&[
                    5,
                    i64::from(*pick),
                    i64::from(*payload),
                    vals[0],
                    vals[1],
                    vals[2],
                ]),
                Op::Delete { pick } => feed(&[6, i64::from(*pick)]),
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streams(workload: Workload, seed: u64) -> Vec<Vec<Step>> {
        let plan = Plan::new(workload, seed, 1.0, true);
        (0..plan.clients).map(|c| client_stream(&plan, c)).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for workload in Workload::ALL {
            let a = stream_hash(&streams(workload, 7));
            assert_eq!(a, stream_hash(&streams(workload, 7)), "{workload:?}");
            assert_ne!(a, stream_hash(&streams(workload, 8)), "{workload:?}");
        }
    }

    #[test]
    fn clients_share_hot_values_but_not_streams() {
        let s = streams(Workload::Mixed, 3);
        assert_ne!(s[0], s[1]);
        let plan = Plan::new(Workload::Mixed, 3, 1.0, true);
        let hot = hot_values(&plan, 0);
        for stream in &s {
            for step in stream.iter().filter(|s| s.phase == 0) {
                if let Op::Point { col, value } = step.op {
                    assert!(hot[col as usize].contains(&value));
                }
            }
        }
    }

    #[test]
    fn phases_rotate_the_dominant_column_and_mixes_match_their_shares() {
        let plan = Plan::new(Workload::Shift, 1, 4.0, false);
        let stream = client_stream(&plan, 0);
        assert_eq!(stream.len() % PHASE_READS, 0);
        for phase in 0..3u32 {
            let mut per_col = [0usize; 3];
            for step in stream.iter().filter(|s| s.phase == phase) {
                if let Op::Point { col, .. } = step.op {
                    per_col[col as usize] += 1;
                }
            }
            assert_eq!(per_col.iter().sum::<usize>(), PHASE_READS);
            let dominant = (phase % 3) as usize;
            assert!(per_col[dominant] > PHASE_READS / 2, "{per_col:?}");
        }

        let plan = Plan::new(Workload::WriteDurable, 1, 4.0, false);
        let stream = client_stream(&plan, 1);
        let inserts = stream
            .iter()
            .filter(|s| matches!(s.op, Op::Insert { .. }))
            .count() as f64;
        assert!((0.37..0.43).contains(&(inserts / stream.len() as f64)));
        let (lo, hi) = plan.private_uncovered(1);
        let (clo, chi) = plan.private_covered(1);
        for step in &stream {
            if let Op::Insert { vals, .. } | Op::Update { vals, .. } = &step.op {
                for v in vals {
                    assert!((lo..=hi).contains(v) || (clo..=chi).contains(v));
                    assert!(*v > plan.domain || (*v < 0 && *v >= COVERED_LO));
                }
            }
        }
    }

    #[test]
    fn private_ranges_of_clients_are_disjoint() {
        let plan = Plan::new(Workload::WriteDurable, 1, 1.0, false);
        let (a, b) = (plan.private_uncovered(0), plan.private_uncovered(1));
        assert!(a.1 < b.0 && a.0 > plan.domain);
        let (a, b) = (plan.private_covered(0), plan.private_covered(1));
        assert!(b.1 < a.0 && a.1 < 0);
    }
}
