//! Contract #8: a worker panic fails the run with
//! [`ServiceError::WorkerCrashed`] naming that worker — as a value, with no
//! hang and no process abort — while the other workers drain.
//!
//! The panic is a real one, reached through the public API alone: every
//! organization asserts at its op entry that an op names a cache below its
//! count (`DirectoryOp::check_cache`), so one `AddSharer` naming cache
//! `CACHES`, spliced into a catalog stream, kills the worker that owns its
//! line, `(line & (SHARDS - 1)) % workers`.  The poison sits at the first,
//! a middle and the last request; the last is the join path, where the
//! worker dies after its final delivery and no later send can fail.  One
//! worker (one lane, every shard) and two take the per-request `apply`
//! path; four own a shard each and take `apply_batch`.

use ccd_common::{CacheId, LineAddr};
use ccd_directory::DirectoryOp;
use ccd_service::{DirectoryService, LoadSpec, ServiceConfig, ServiceError, DEFAULT_QUEUE_DEPTH};

const CACHES: usize = 8;
const REQUESTS: u64 = 20_000;
const SPEC: &str = "cuckoo-4x128-c8";
const SHARDS: usize = 4;
const WORKERS: [usize; 3] = [1, 2, 4];
/// Queue depth 1 keeps the router parked in a blocking send on a full lane
/// whenever a worker falls behind, so a death fails a parked send too.
const DEPTHS: [usize; 2] = [DEFAULT_QUEUE_DEPTH, 1];

fn load() -> LoadSpec {
    // One private cache a core.
    LoadSpec::parse("prodcons", CACHES, 47, REQUESTS).expect("catalog workload parses")
}

fn service(workers: usize, queue_depth: usize) -> DirectoryService {
    // A small batch maximizes deliveries without slowing the test much.
    let config = ServiceConfig::new(SPEC, SHARDS, workers)
        .with_batch(64)
        .with_queue_depth(queue_depth);
    DirectoryService::build_standard(config).expect("topology builds")
}

fn ops() -> Vec<DirectoryOp> {
    load().ops().expect("load streams").collect()
}

/// Without the poison, every topology of the suite equals the serial
/// reference over the same stream.
#[test]
fn poison_free_runs_equal_the_serial_reference() {
    let serial = service(1, DEFAULT_QUEUE_DEPTH).run_serial(ops().into_iter());
    for workers in WORKERS {
        for depth in DEPTHS {
            let report = service(workers, depth)
                .run(ops().into_iter())
                .expect("a poison-free run completes");
            assert_eq!(
                report.semantics(),
                serial.semantics(),
                "{workers} workers x depth {depth}"
            );
        }
    }
}

/// One out-of-range op at the first, a middle or the last request aborts
/// the worker that owns its line: the run returns `WorkerCrashed` naming
/// that worker, with the op-entry assert's message as the cause.
#[test]
fn an_abort_surfaces_worker_crashed() {
    let cache = CacheId::new(CACHES as u32);
    // (request index, line): lines on shards 3, 2 and 1.
    for (at, line) in [(0, 3), (REQUESTS / 2, 4_002), (REQUESTS, 8_001)] {
        let poison = DirectoryOp::AddSharer {
            line: LineAddr::from_block_number(line),
            cache,
        };
        for workers in WORKERS {
            let owner = (line as usize & (SHARDS - 1)) % workers;
            for depth in DEPTHS {
                let case = format!("poison at {at}, {workers} workers x depth {depth}");
                let mut stream = ops();
                stream.insert(at as usize, poison);
                match service(workers, depth).run(stream.into_iter()) {
                    Err(ServiceError::WorkerCrashed { worker, cause }) => {
                        assert_eq!(worker, owner, "{case}");
                        assert!(
                            cause.contains(&format!("{cache} out of range")),
                            "{case}: {cause}"
                        );
                    }
                    other => panic!("{case}: expected WorkerCrashed, got {other:?}"),
                }
            }
        }
    }
}
