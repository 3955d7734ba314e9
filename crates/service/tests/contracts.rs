//! The service's contracts, each a function of one seeded [`Case`]: #6, a
//! concurrent run equals the serial reference (`run_load_serial`) in
//! [`ServiceReport::semantics`]; #8, an op naming a cache past the count
//! fails the run with `WorkerCrashed` naming the worker that owns its
//! line; #11, an armed run equals the dark one, its merged metrics are the
//! serial run's, and its recordings repeat.  Every run also checks that
//! its log is dense and seq-ordered and that its digest is the log's.  A
//! failing case is shrunk ([`shrink`]) and printed as one `case: …` line
//! with the first `seq` at which the two outcome logs part.

use ccd_common::rng::{Rng64, SplitMix64};
use ccd_common::{CacheId, LineAddr};
use ccd_directory::{DirectoryOp, DirectorySpec};
use ccd_service::DEFAULT_QUEUE_DEPTH;
use ccd_service::{digest_outcomes, DirectoryService, EventKind, FlightRecording, LoadSpec};
use ccd_service::{ObsConfig, OutcomeRecord, ServiceConfig, ServiceError, ServiceReport};
use ccd_workloads::{record_trace, WorkloadSpec};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

const OBS: &str = "obs-ring4096-spans";

/// One run: the topology, its shard spec's geometry included, and the load.
#[derive(Clone, Debug, PartialEq)]
struct Case {
    config: ServiceConfig,
    load: LoadSpec,
}

/// `spec` over four shards and one worker, one core a tracked cache.
fn case(spec: &str, workload: &str, seed: u64, requests: u64) -> Case {
    let cores = spec.parse::<DirectorySpec>().expect("spec parses").caches;
    let load = LoadSpec::parse(workload, cores, seed, requests).expect("load parses");
    Case {
        config: ServiceConfig::new(spec, 4, 1),
        load,
    }
}

impl Case {
    fn with(&self, edit: impl FnOnce(&mut ServiceConfig)) -> Case {
        let mut case = self.clone();
        edit(&mut case.config);
        case
    }

    /// The case at queue depth `depth` and `batch` requests a batch.
    fn lanes(&self, depth: usize, batch: usize) -> Case {
        self.with(|c| {
            c.queue_depth = depth;
            c.batch = batch;
        })
    }

    fn armed(&self) -> Case {
        self.with(|c| c.obs = Some(ObsConfig::parse(OBS).expect("obs spec parses")))
    }

    fn service(&self) -> Result<DirectoryService, String> {
        DirectoryService::build_standard(self.config.clone()).map_err(|e| e.to_string())
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (load, workload) = (&self.load, self.load.workload.label());
        let requests = format!("seed={:#x} requests={}", load.seed, load.requests);
        write!(f, "{:?} {workload} {requests}", self.config)
    }
}

/// Runs `f`, turning a panic on the calling thread into an error.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let text = payload.downcast_ref::<String>().map(String::as_str);
        let text = text.or(payload.downcast_ref::<&str>().copied());
        format!("the run panicked: {}", text.unwrap_or("a non-text payload"))
    })
}

/// Runs `case` serially or concurrently.  A serial run must report a dense,
/// seq-ordered log, its digest and no router; a concurrent one owes the
/// serial reference's log, which its contract compares.
fn run(case: &Case, serial: bool) -> Result<ServiceReport, String> {
    let (service, load) = (case.service()?, &case.load);
    let ran = guarded(|| match serial {
        true => service.run_load_serial(load),
        false => service.run_load(load),
    })?;
    let report = ran.map_err(|e| format!("serial {serial}: {e}"))?;
    let (log, obs) = (&report.outcomes, report.obs.as_ref());
    let shards = case.config.shards;
    let ordered = |(i, r): (usize, OutcomeRecord)| r.seq == i as u64 && (r.shard as usize) < shards;
    let kept = [
        !serial || log.len() as u64 == load.requests && log.iter().enumerate().all(ordered),
        !serial || digest_outcomes(log) == report.outcome_digest,
        !serial || obs.is_none_or(|o| o.router.is_none()),
        obs.is_some() == case.config.obs.is_some(),
    ];
    match kept.iter().position(|kept| !kept) {
        None => Ok(report),
        Some(broken) => Err(format!("serial {serial}: broke {}", OWED[broken])),
    }
}

const OWED: [&str; 4] = ["a dense log", "its digest", "no router", "obs iff armed"];

type Same = fn(&ServiceReport, &ServiceReport) -> bool;

/// `Ok` when `same` holds of the reports; otherwise where their logs part.
fn agree(reference: &ServiceReport, subject: &ServiceReport, same: Same) -> Result<(), String> {
    if same(reference, subject) {
        return Ok(());
    }
    let (a, b) = (&reference.outcomes, &subject.outcomes);
    let parted = a.iter().zip(b).find(|(x, y)| x != y).map(|(x, _)| x.seq);
    match parted.or((a.len() != b.len()).then(|| a.len().min(b.len()) as u64)) {
        Some(seq) => Err(format!("first divergent seq: {seq}")),
        None => Err("the logs agree; another field differs".into()),
    }
}

const SEMANTICS: Same = |a, b| a.semantics() == b.semantics();

/// Contract #6: the concurrent run is the serial reference.
fn matches_serial(case: &Case) -> Result<ServiceReport, String> {
    let report = run(case, false)?;
    agree(&run(case, true)?, &report, SEMANTICS)?;
    Ok(report)
}

/// Contract #11: armed, serially and concurrently, equals the dark serial
/// reference, and both armed runs merge equal metrics.
fn armed_matches_dark(case: &Case) -> Result<ServiceReport, String> {
    let (dark, armed) = (run(case, true)?, case.armed());
    let (serial, report) = (run(&armed, true)?, run(&armed, false)?);
    agree(&dark, &serial, SEMANTICS)?;
    agree(&dark, &report, SEMANTICS)?;
    agree(&serial, &report, |a, b| {
        let metrics = |r: &ServiceReport| r.obs.clone().map(|o| o.metrics);
        metrics(a) == metrics(b)
    })?;
    Ok(report)
}

/// The same concurrent run twice gives equal reports, recordings included.
fn reruns_equal(case: &Case) -> Result<ServiceReport, String> {
    let report = run(case, false)?;
    agree(&report, &run(case, false)?, |a, b| a == b)?;
    Ok(report)
}

/// Contract #8: an `AddSharer` naming cache `cores`, spliced in at request
/// `at`, fails the run with `WorkerCrashed` naming the owner of `block`.
fn crashes_its_owner(case: &Case, at: u64, block: u64) -> Result<(), String> {
    let cache = CacheId::new(case.load.cores as u32);
    let line = LineAddr::from_block_number(block);
    let mut ops: Vec<DirectoryOp> = case.load.ops().expect("load streams").collect();
    ops.insert(at as usize, DirectoryOp::AddSharer { line, cache });
    let owner = (block as usize & (case.config.shards - 1)) % case.config.workers;
    let wanted = format!("{cache} out of range");
    let named = |worker, cause: &str| worker == owner && cause.contains(&wanted);
    let service = case.service()?;
    let ran =
        guarded(|| service.run(ops.into_iter())).map_err(|e| format!("poison at {at}: {e}"))?;
    match ran.map(|report| report.requests) {
        Err(ServiceError::WorkerCrashed { worker, cause }) if named(worker, &cause) => Ok(()),
        other => Err(format!("poison at {at}: {other:?}, not {owner}'s crash")),
    }
}

/// Edits the shard spec's geometry.
fn geometry(case: &mut Case, edit: fn(&mut DirectorySpec)) {
    let mut spec: DirectorySpec = case.config.spec.parse().expect("spec parses");
    edit(&mut spec);
    case.config.spec = spec.to_string();
}

/// The smallest case, by halving requests, then lowering workers, shards,
/// sets and ways, for which `fails` still holds.
fn shrink(mut case: Case, fails: impl Fn(&Case) -> bool) -> Case {
    let steps: [fn(&mut Case); 5] = [
        |c| c.load.requests /= 2,
        |c| c.config.workers /= 2,
        |c| c.config.shards /= 2,
        |c| geometry(c, |g| g.sets /= 2),
        |c| geometry(c, |g| g.ways -= 1),
    ];
    let valid = |c: &Case| c.load.requests > 0 && c.config.validate().is_ok();
    loop {
        let mut smaller = steps.iter().map(|step| {
            let mut next = case.clone();
            step(&mut next);
            next
        });
        let Some(next) = smaller.find(|c| valid(c) && fails(c)) else {
            return case;
        };
        case = next;
    }
}

/// Checks `contract` on `case`; on failure, panics with the shrunk case.
fn holds<T>(case: Case, contract: impl Fn(&Case) -> Result<T, String>) -> T {
    contract(&case).unwrap_or_else(|first| {
        let small = shrink(case, |c| c.service().is_ok() && contract(c).is_err());
        let why = contract(&small).err().unwrap_or_default();
        panic!("{first}\ncase: {small}\n{why}")
    })
}

/// Checks `contract` on `case` at one, two and four workers, up to its shards.
fn each_worker<T>(case: Case, contract: impl Fn(&Case) -> Result<T, String>) {
    for workers in [1, 2, 4].into_iter().filter(|&w| w <= case.config.shards) {
        holds(case.with(|c| c.workers = workers), &contract);
    }
}

#[test]
fn the_shrinker_finds_the_minimal_failing_case() {
    let start =
        case("cuckoo-4x256-c8", "oracle", 1, 20_000).with(|c| (c.shards, c.workers) = (8, 4));
    let small = shrink(start, |c| {
        let ways = c.config.spec.parse::<DirectorySpec>().unwrap().ways;
        c.load.requests > 300 && c.config.workers > 1 && ways > 2
    });
    let minimal = case("cuckoo-3x2-c8", "oracle", 1, 312).with(|c| (c.shards, c.workers) = (2, 2));
    assert_eq!(small, minimal);
}

/// Four workloads × two organizations × shards {2, 8} × workers {1, 2, 8}.
#[test]
fn every_topology_matches_serial_application() {
    let workloads = ["readmostly", "prodcons", "migratory-zipf0.9", "oracle"];
    for (index, workload) in workloads.into_iter().enumerate() {
        for spec in ["sparse-4x256-c8", "cuckoo-4x128-c8"] {
            let load = case(spec, workload, 0xD0_0D + index as u64, 20_000);
            for (shards, workers) in [(2, 1), (2, 2), (8, 1), (8, 2), (8, 8)] {
                let topology = load.with(|c| (c.shards, c.workers) = (shards, workers));
                holds(topology, matches_serial);
            }
        }
    }
}

/// A recorded trace replayed as traffic obeys #6, and replays equally twice.
#[test]
fn trace_replay_traffic_matches_serial_application() {
    let dir = std::env::temp_dir().join("ccd-service-contracts");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("replay-{}.ccdt", std::process::id()));
    let spec: WorkloadSpec = "falseshare".parse().unwrap();
    let written = record_trace(&path, 8, spec.stream(8, 99).unwrap(), 20_000);
    assert_eq!(written.unwrap(), 20_000);
    let workload = format!("replay:{}", path.display());
    let replay = case("cuckoo-4x128-c8", &workload, 0, 20_000);
    each_worker(replay.clone(), matches_serial);
    holds(replay.with(|c| c.workers = 2), reruns_equal);
    std::fs::remove_file(&path).ok();
}

/// Queue depth 1 and batch 1 park the router on a full lane; six more
/// (workers, depth, batch) topologies are drawn from a fixed seed.
#[test]
fn randomized_topologies_obey_the_contract() {
    let mut rng = SplitMix64::new(0x0CCD_5EED);
    let mut draw = |n| 1 + (rng.next_u64() % n) as usize;
    let drawn: Vec<_> = (0..6).map(|_| (draw(4), draw(8), draw(500))).collect();
    let load = case("sparse-4x256-c8", "stream-b1024", 7, 20_000);
    for (workers, depth, batch) in [(4, 1, 1)].into_iter().chain(drawn) {
        let topology = load.with(|c| c.workers = workers).lanes(depth, batch);
        holds(topology, matches_serial);
    }
}

/// The reported digest is hashed from the bytes the workers stored; `run`
/// holds the serial one to `digest_outcomes` of its log.
#[test]
fn the_reported_digest_is_the_digest_of_the_reported_log() {
    let load = case("cuckoo-4x128-c8", "migratory-zipf0.9", 23, 20_000);
    each_worker(load, matches_serial);
}

/// One serial run a row, `spec workload seed requests shards digest stored
/// entries` (`stored`: the log's `stored_bytes`), as literals never
/// recomputed: a saturated oracle table, a migratory and a false-sharing
/// stream, two more seeds.  A moved digest or entry count redefines what
/// the service decides; a moved size only the stored layout.
const PINNED: &[&str] = &[
    "cuckoo-4x4096-c16 oracle 0x5E21 150000 4 8a9262488f60f772 1070446 16384",
    "cuckoo-4x4096-c16 oracle 0x5E21 150000 16 f4f1ffbee08325de 1070223 16384",
    "cuckoo-4x4096-c16 migratory-zipf0.9 0x5E22 150000 4 fbc7daf96980b701 340123 4054",
    "cuckoo-4x4096-c16 migratory-zipf0.9 0x5E22 150000 16 300f71c59141d151 340123 4054",
    "cuckoo-4x4096-c16 falseshare 0x5E23 150000 4 c1261eef2366e2b2 749513 64",
    "cuckoo-4x4096-c16 falseshare 0x5E23 150000 16 f448ae82abb1d911 749513 64",
    "cuckoo-4x4096-c16 migratory-zipf0.9 0xC4A0 100000 4 ce415ce9aaa0acf3 225650 3965",
    "cuckoo-4x4096-c16 oracle 0x0B5E 150000 8 a060bcbc4376fbac 1067955 16384",
];

#[test]
fn serial_runs_reproduce_their_pinned_digests() {
    let mut svc_hit_rows = 0;
    for row in PINNED {
        let fields: Vec<&str> = row.split(' ').collect();
        let [spec, workload, seed, requests, shards, _, stored, _] = fields[..] else {
            panic!("{row}: eight fields");
        };
        let number = |text: &str| text.parse::<u64>().expect("a decimal field");
        let seed = u64::from_str_radix(&seed[2..], 16).expect("a hex seed");
        let pinned = case(spec, workload, seed, number(requests));
        let r = run(&pinned.with(|c| c.shards = number(shards) as usize), true).expect(row);
        let got = (r.outcome_digest, r.outcomes.stored_bytes(), r.entries);
        let got = format!("{:016x} {} {}", got.0, got.1, got.2);
        assert_eq!(got, fields[5..].join(" "), "{row}");
        // The benchmark's `svc_hit` cell: at most 2.5 bytes a record.
        if (workload, shards) == ("migratory-zipf0.9", "4") {
            assert!(2 * number(stored) <= 5 * number(requests), "{row}");
            svc_hit_rows += 1;
        }
    }
    assert!(svc_hit_rows > 0, "no row has svc_hit's shape");
}

/// One lane (workers 1) and two take the per-request `apply` path; four
/// own a shard each and take `apply_batch`.  Queue depth 1 parks the
/// router on a full lane, so a death fails a parked send too.
fn poison_topologies() -> impl Iterator<Item = Case> {
    let load = case("cuckoo-4x128-c8", "prodcons", 47, 20_000);
    let topologies = [1, 2, 4].map(|w| [DEFAULT_QUEUE_DEPTH, 1].map(|depth| (w, depth)));
    (topologies.into_iter().flatten())
        .map(move |(w, depth)| load.lanes(depth, 64).with(|c| c.workers = w))
}

#[test]
fn poison_free_runs_equal_the_serial_reference() {
    for topology in poison_topologies() {
        holds(topology, matches_serial);
    }
}

/// The poison sits at the first, a middle and the last request (the join
/// path: the worker dies after its final delivery), on shards 3, 2 and 1.
#[test]
fn an_abort_surfaces_worker_crashed() {
    for (half, block) in [(0, 3), (1, 4_002), (2, 8_001)] {
        for topology in poison_topologies() {
            holds(topology, |c| {
                crashes_its_owner(c, c.load.requests * half / 2, block)
            });
        }
    }
}

/// The load and topology of the three observation tests.
fn observed(workers: usize, depth: usize) -> Case {
    let load = case("cuckoo-4x256-c8", "migratory-zipf0.9", 0x0B5, 30_000);
    load.lanes(depth, 64).with(|c| c.workers = workers)
}

/// The summed argument of the `kind` events in `recordings`.
fn narrated<'a>(recordings: impl IntoIterator<Item = &'a FlightRecording>, kind: EventKind) -> u64 {
    let events = recordings.into_iter().flat_map(|r| &r.events);
    events
        .filter(|e| e.kind() == Some(kind))
        .map(|e| e.arg())
        .sum()
}

/// With the router parked on full lanes, every request is narrated: routed
/// in one batch and applied by one worker.
#[test]
fn armed_and_unarmed_runs_are_digest_identical_with_a_parked_router() {
    for workers in [1, 2, 4] {
        let obs = holds(observed(workers, 1), armed_matches_dark).obs.unwrap();
        assert_eq!((obs.label.as_str(), obs.workers.len()), (OBS, workers));
        assert!(obs.metrics.histograms.iter().any(|h| h.count > 0));
        let routed = narrated(&obs.router, EventKind::BatchRouted);
        let applied = narrated(&obs.workers, EventKind::BatchApplied);
        assert_eq!((routed, applied), (30_000, 30_000));
    }
}

#[test]
fn merged_metric_snapshots_are_byte_identical_across_worker_counts() {
    each_worker(observed(1, DEFAULT_QUEUE_DEPTH), armed_matches_dark);
}

#[test]
fn flight_recordings_are_bit_reproducible_for_a_fixed_topology() {
    let obs = holds(observed(2, 1).armed(), reruns_equal).obs.unwrap();
    assert!(obs.workers.iter().all(|r| r.recorded > 0));
    assert!(narrated(&obs.router, EventKind::BatchRouted) > 0);
}

/// CI runs this under `CCD_WORKERS=1` and `4`; unset, it runs two workers.
#[test]
fn smoke_service_matches_serial_at_the_env_worker_count() {
    let workers: usize = match std::env::var("CCD_WORKERS") {
        Err(std::env::VarError::NotPresent) => 2,
        Ok(raw) => match raw.trim().parse() {
            Ok(workers) if workers >= 1 => workers,
            _ => panic!("CCD_WORKERS `{raw}`: expected a positive worker count"),
        },
        Err(e) => panic!("CCD_WORKERS unreadable: {e:?}"),
    };
    // The next power of two divides the spec's 4096 sets for any worker
    // count up to 4096, so every valid value yields a valid topology.
    let shards = workers.next_power_of_two().max(4);
    let load = case("cuckoo-4x4096-c16", "oracle", 0xCAFE, 30_000);
    let smoke = load.with(|c| (c.shards, c.workers) = (shards, workers));
    let report = holds(smoke, matches_serial);
    assert_eq!(report.workers, workers);
    assert!(report.stats.directory.insertions.get() > 0);
}

/// A random directory (geometry × hash family × sharer format; one in five
/// a baseline, which runs the default `apply_batch`) and workload, checked
/// against serial at every worker count up to its shards.
fn fuzz_case(seed: u64, index: usize) {
    let mut rng = SplitMix64::new(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut pick = |n: usize| rng.next_below(n as u64) as usize;
    let shards = [2, 4][pick(2)];
    let sets = [32, 64][pick(2)] * shards;
    let spec = match pick(5) {
        0 => format!("sparse-4x{sets}-c8"),
        _ => {
            let ways = [2, 3, 4, 8][pick(4)];
            let kind = ["skew", "strong"][pick(2)];
            let sharers = ["", "@coarse", "@limited", "@hier"][pick(4)];
            format!("cuckoo-{ways}x{sets}-{kind}-c8{sharers}")
        }
    };
    let workload = ["oracle", "migratory-zipf0.9", "falseshare"][pick(3)];
    let requests = 2_000 + rng.next_below(2_000);
    let drawn = case(&spec, workload, rng.next_u64(), requests);
    let drawn = drawn.lanes(DEFAULT_QUEUE_DEPTH, 64);
    each_worker(drawn.with(|c| c.shards = shards), matches_serial);
}

#[test]
fn fuzz_at_a_fixed_seed() {
    (0..8).for_each(|index| fuzz_case(0xD1FF_F552, index));
}

/// A fresh seed per run, printed so any failure is replayable with
/// `CCD_FUZZ_SEED=<seed> cargo test -p ccd-service --test contracts fuzz_burst`.
#[test]
fn fuzz_burst() {
    let seed = match std::env::var("CCD_FUZZ_SEED") {
        Ok(text) => match text.trim().strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).expect("hex CCD_FUZZ_SEED"),
            None => text.trim().parse().expect("numeric CCD_FUZZ_SEED"),
        },
        // Fresh per process without reading a clock: the standard library
        // keys every `RandomState` from OS entropy.
        Err(_) => {
            use std::hash::{BuildHasher, Hasher};
            let state = std::collections::hash_map::RandomState::new();
            state.build_hasher().finish()
        }
    };
    eprintln!("contracts: CCD_FUZZ_SEED={seed:#x}");
    (0..4).for_each(|index| fuzz_case(seed, index));
}
