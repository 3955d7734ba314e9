//! The service's determinism contract, enforced as a property over the
//! topology grid: for a fixed shard count, **every** (workers × shards)
//! configuration must produce outcome streams and merged statistics
//! bit-identical to inline serial application of the same per-address
//! streams — across scenario families, a calibrated paper profile, and a
//! recorded trace replay.  Eight serial runs are also held to literal
//! digests, so a change to what the service decides cannot pass unseen.

use ccd_common::rng::{Rng64, SplitMix64};
use ccd_service::{digest_outcomes, DirectoryService, LoadSpec, ServiceConfig, ServiceReport};
use ccd_workloads::{record_trace, WorkloadSpec};

const CORES: usize = 8;
const REQUESTS: u64 = 20_000;

fn build(spec: &str, shards: usize, workers: usize) -> DirectoryService {
    DirectoryService::build_standard(ServiceConfig::new(spec, shards, workers))
        .expect("test topology builds")
}

fn assert_matches_serial(spec: &str, shards: usize, workers: usize, load: &LoadSpec) {
    let serial = build(spec, shards, 1)
        .run_load_serial(load)
        .expect("serial reference runs");
    let report = build(spec, shards, workers)
        .run_load(load)
        .expect("service runs");
    assert_eq!(report.requests, REQUESTS);
    assert_eq!(
        report.semantics(),
        serial.semantics(),
        "{} x {shards} shards x {workers} workers must be bit-identical to serial",
        load.workload.label()
    );
    assert_outcome_log_is_dense(&serial);
}

fn assert_outcome_log_is_dense(report: &ServiceReport) {
    assert_eq!(report.outcomes.len() as u64, report.requests);
    for (i, record) in report.outcomes.iter().enumerate() {
        assert_eq!(record.seq, i as u64, "log is sequence-ordered and dense");
        assert!((record.shard as usize) < report.shards);
    }
}

/// Two scenario families and a paper profile, across the topology grid and
/// two shard organizations (a set-associative baseline and the cuckoo
/// directory, whose displacement chains make outcome identity a much
/// stronger statement).
#[test]
fn every_topology_matches_serial_application() {
    let workloads = ["readmostly", "prodcons", "migratory-zipf0.9", "oracle"];
    for (index, workload) in workloads.iter().enumerate() {
        let load = LoadSpec::parse(workload, CORES, 0xD0_0D + index as u64, REQUESTS)
            .expect("catalog workload parses");
        for spec in ["sparse-4x256-c8", "cuckoo-4x128-c8"] {
            for shards in [2usize, 8] {
                for workers in [1usize, 2, shards] {
                    assert_matches_serial(spec, shards, workers, &load);
                }
            }
        }
    }
}

/// A recorded trace replayed as service traffic is subject to the same
/// contract — and, replayed twice, produces the same report bytes.
#[test]
fn trace_replay_traffic_matches_serial_application() {
    let dir = std::env::temp_dir().join("ccd-service-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("replay-{}.ccdt", std::process::id()));

    let recorded: WorkloadSpec = "falseshare".parse().unwrap();
    let stream = recorded.stream(CORES, 99).unwrap();
    let written = record_trace(&path, CORES as u32, stream, REQUESTS).unwrap();
    assert_eq!(written, REQUESTS);

    let load = LoadSpec {
        workload: WorkloadSpec::replay(path.to_str().unwrap()),
        cores: CORES,
        seed: 0, // ignored by replays
        requests: REQUESTS,
    };
    for workers in [1usize, 2, 4] {
        assert_matches_serial("cuckoo-4x128-c8", 4, workers, &load);
    }

    // Replay is also reproducible wholesale: same file, same report.
    let once = build("cuckoo-4x128-c8", 4, 2).run_load(&load).unwrap();
    let twice = build("cuckoo-4x128-c8", 4, 2).run_load(&load).unwrap();
    assert_eq!(once, twice);
    std::fs::remove_file(&path).ok();
}

/// Randomized topologies (seeded, reproducible): any (shards, workers,
/// queue depth, batch size) the config accepts obeys the contract.  The
/// first row is fixed at four workers, queue depth 1 and batch 1: one
/// request in flight a lane, so the router parks in a blocking send
/// whenever a worker is behind.
#[test]
fn randomized_topologies_obey_the_contract() {
    let mut rng = SplitMix64::new(0x0CCD_5EED);
    let load = LoadSpec::parse("stream-b1024", CORES, 7, REQUESTS).unwrap();
    let serial = build("sparse-4x256-c8", 4, 1)
        .run_load_serial(&load)
        .expect("serial reference runs");
    let parked = (4, 1, 1);
    let drawn = (0..6).map(|_| {
        (
            1 + (rng.next_u64() % 4) as usize,
            1 + (rng.next_u64() % 8) as usize,
            1 + (rng.next_u64() % 500) as usize,
        )
    });
    for (workers, queue_depth, batch) in std::iter::once(parked).chain(drawn) {
        let config = ServiceConfig::new("sparse-4x256-c8", 4, workers)
            .with_queue_depth(queue_depth)
            .with_batch(batch);
        let report = DirectoryService::build_standard(config)
            .expect("topology builds")
            .run_load(&load)
            .expect("service runs");
        assert_eq!(
            report.semantics(),
            serial.semantics(),
            "workers={workers} queue={queue_depth} batch={batch}"
        );
    }
}

/// The reported digest is hashed from the bytes the workers stored — a
/// lone log's chunks as they filled, a merged log's after the merge — and
/// either way it must be what [`digest_outcomes`] computes from the
/// reported log's decoded records, encoded afresh.
#[test]
fn the_reported_digest_is_the_digest_of_the_reported_log() {
    const SPEC: &str = "cuckoo-4x128-c8";
    let load = LoadSpec::parse("migratory-zipf0.9", CORES, 23, REQUESTS).unwrap();
    let mut reports = vec![(
        "serial".to_string(),
        build(SPEC, 4, 1).run_load_serial(&load).unwrap(),
    )];
    for workers in [1usize, 2, 4] {
        let report = build(SPEC, 4, workers).run_load(&load).unwrap();
        reports.push((format!("{workers} workers"), report));
    }
    let reference = reports[0].1.outcome_digest;
    for (what, report) in &reports {
        assert_eq!(report.outcomes.len() as u64, REQUESTS, "{what}");
        assert_eq!(
            digest_outcomes(&report.outcomes),
            report.outcome_digest,
            "{what}: reported digest is not the log's"
        );
        assert_eq!(
            report.outcome_digest, reference,
            "{what}: differs from serial"
        );
    }
}

/// One serial run at 16 cores a row, `spec workload seed requests shards
/// digest stored entries` (`stored`: the outcome log's `stored_bytes`).
/// The digests, sizes and entry counts are literals, written down once and
/// never recomputed: a saturated oracle table (two thirds of its requests
/// force an eviction), a migratory and a false-sharing stream, and two
/// more seeds.  A change that moves a digest or an entry count redefines
/// the outcome log or what the service decides, and re-pins it on purpose;
/// one that moves only a size changes the stored layout.
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

/// The spec, workload and shard count of the benchmark's `svc_hit`
/// workload, which also runs at 16 cores.
const SVC_HIT: (&str, &str, &str) = ("cuckoo-4x4096-c16", "migratory-zipf0.9", "4");

#[test]
fn serial_runs_reproduce_their_pinned_digests() {
    let mut svc_hit_rows = 0;
    for row in PINNED {
        let fields: Vec<&str> = row.split(' ').collect();
        let [spec, workload, seed, requests, shards, digest, stored, entries] = fields[..] else {
            panic!("{row}: eight fields");
        };
        let number = |text: &str| text.parse::<u64>().expect("a decimal field");
        let seed = u64::from_str_radix(&seed[2..], 16).expect("a hex seed");
        let config = ServiceConfig::new(spec, number(shards) as usize, 1);
        let load = LoadSpec::parse(workload, 16, seed, number(requests)).expect("workload parses");
        let report = DirectoryService::build_standard(config)
            .expect("topology builds")
            .run_load_serial(&load)
            .expect("serial run completes");
        assert_eq!(format!("{:016x}", report.outcome_digest), digest, "{row}");
        assert_eq!(
            report.outcomes.stored_bytes() as u64,
            number(stored),
            "{row}"
        );
        assert_eq!(report.entries as u64, number(entries), "{row}");
        if (spec, workload, shards) == SVC_HIT {
            // The benchmark's `svc_hit` cell: at most 2.5 bytes a record.
            assert!(2 * number(stored) <= 5 * number(requests), "{row}");
            svc_hit_rows += 1;
        }
    }
    assert!(svc_hit_rows > 0, "no row has svc_hit's shape");
}
