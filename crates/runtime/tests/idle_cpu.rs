//! An idle live cell must stay nearly idle on the CPU.
//!
//! Every blocking bus receive spins briefly before it parks, and an idle
//! server re-enters that receive once per poll interval. The spin is
//! bounded (20 µs per 10 ms poll), so a quiet cell costs a fraction of a
//! percent of one core; a spin that lost its bound would burn whole
//! cores. This runs as its own test binary so no other test's threads
//! share the process while the CPU time is sampled.

#![cfg(target_os = "linux")]

use std::fs;
use std::thread;
use std::time::{Duration, Instant};

use deceit_runtime::{ClusterRuntime, RuntimeConfig};

/// CPU time consumed so far by every live thread of this process, in
/// nanoseconds: the sum of field 1 of `/proc/self/task/*/schedstat`.
fn process_cpu_ns() -> u64 {
    fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

#[test]
fn idle_cell_uses_under_a_quarter_core() {
    let rt = ClusterRuntime::start(RuntimeConfig::new(3));
    let mut a = rt.client();
    let mut b = rt.client();
    let root = a.root();
    let file = a.create(root, "idle.txt", 0o644).expect("create");
    a.write(file.handle, 0, b"idle cell").expect("write");
    rt.settle();
    for session in [&mut a, &mut b] {
        assert_eq!(&session.read(file.handle, 0, 64).expect("read")[..], b"idle cell");
    }

    let (cpu0, wall0) = (process_cpu_ns(), Instant::now());
    thread::sleep(Duration::from_secs(1));
    let (cpu, wall) = (process_cpu_ns().saturating_sub(cpu0), wall0.elapsed());

    let share = cpu as f64 / wall.as_nanos() as f64;
    assert!(share < 0.25, "idle cell used {:.1}% of one core over {wall:?}", share * 100.0);
    drop((a, b));
    rt.shutdown();
}
