//! The executor spawns no thread per run: the caller is the CPU worker
//! and one process-wide thread is the GPU worker.
//!
//! This file is its own test binary on purpose: it counts the threads
//! of the whole process (`/proc/self/task`), so no other test may run
//! beside it.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;

use duet_compiler::Compiler;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{GraphBuilder, NodeId, Op};
use duet_models::input_feeds;
use duet_runtime::{HeterogeneousExecutor, Placed};

/// Thread ids of this process.
fn tasks() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .map(|e| {
            let name = e.expect("task entry").file_name();
            name.to_str()
                .and_then(|s| s.parse().ok())
                .expect("task dirs are thread ids")
        })
        .collect()
}

#[test]
fn runs_spawn_no_threads() {
    // Two branches on different devices joined on the CPU.
    let mut b = GraphBuilder::new("two_device", 1);
    let x = b.input("x", vec![1, 32]);
    let l = b.dense("left", x, 32, Some(Op::Relu)).unwrap();
    let r = b.dense("right", x, 32, Some(Op::Tanh)).unwrap();
    let cat = b.op("cat", Op::Concat { axis: 1 }, &[l, r]).unwrap();
    let y = b.dense("head", cat, 4, None).unwrap();
    let g = b.finish(&[y]).unwrap();
    let c = Compiler::default();
    let ids = g.compute_ids();
    let part = |name: &str, device, pick: &dyn Fn(&str) -> bool| Placed {
        sg: c.compile_nodes(
            &g,
            &ids.iter()
                .copied()
                .filter(|&i| pick(&g.node(i).label))
                .collect::<Vec<NodeId>>(),
            name,
        ),
        device,
    };
    let placed = [
        part("left", DeviceKind::Cpu, &|l| l.starts_with("left")),
        part("right", DeviceKind::Gpu, &|l| l.starts_with("right")),
        part("head", DeviceKind::Cpu, &|l| {
            !l.starts_with("left") && !l.starts_with("right")
        }),
    ];
    let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
    let feeds = input_feeds(&g, 3);

    let warm = exec.run(&feeds).expect("warm-up run");
    assert_eq!(warm.tasks_per_device[&DeviceKind::Gpu], 1);

    // A sampler lists the threads throughout the runs, so a thread that
    // is spawned and joined within one run still shows up.
    let running = AtomicBool::new(true);
    let seen = Mutex::new(BTreeSet::new());
    let (before, after, wrong) = thread::scope(|scope| {
        scope.spawn(|| {
            while running.load(Ordering::Relaxed) {
                let now = tasks();
                seen.lock().unwrap().extend(now);
            }
        });
        let before = tasks();
        let wrong = (0..1000)
            .filter(|_| exec.run(&feeds).map(|o| o.outputs).as_ref() != Ok(&warm.outputs))
            .count();
        let after = tasks();
        running.store(false, Ordering::Relaxed);
        (before, after, wrong)
    });
    assert_eq!(wrong, 0, "runs failed or changed their outputs");
    assert_eq!(before.len(), after.len(), "thread count changed");
    assert_eq!(before, after, "threads were replaced");
    let extra: Vec<u64> = seen
        .into_inner()
        .unwrap()
        .difference(&before)
        .copied()
        .collect();
    assert!(
        extra.is_empty(),
        "threads {extra:?} came and went during the runs"
    );
}
