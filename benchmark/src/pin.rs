//! Thread placement, so the scheduler cannot move a thread mid-run (README,
//! "Thread placement"). A workload that is *split* runs its load generators
//! on the first CPU the process is allowed and the runtime's threads on the
//! others: writers and shards then run at the same instant and contend for
//! locks and channels as they would in service. The others run whole on the
//! last CPU, where a query's thread hand-offs cost what the code makes them
//! cost and not what a wake-up between virtual CPUs does.

use std::sync::OnceLock;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

struct Placement {
    generator: Vec<usize>,
    runtime: Vec<usize>,
    /// How many CPUs the process may run on.
    allowed: usize,
}

static PLACEMENT: OnceLock<Placement> = OnceLock::new();

impl Placement {
    /// Places both sides on the CPUs this process may run on
    /// (`Cpus_allowed_list`). With a single CPU they share it either way.
    fn detect(split: bool) -> Placement {
        let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .expect("Cpus_allowed_list in /proc/self/status");
        let mut cpus = Vec::new();
        for part in list.trim().split(',') {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            let (lo, hi): (usize, usize) =
                (lo.parse().expect("cpu number"), hi.parse().expect("cpu number"));
            cpus.extend(lo..=hi);
        }
        if split && cpus.len() > 1 {
            Placement { generator: vec![cpus[0]], runtime: cpus[1..].to_vec(), allowed: cpus.len() }
        } else {
            let last = vec![*cpus.last().expect("at least one allowed CPU")];
            Placement { generator: last.clone(), runtime: last, allowed: cpus.len() }
        }
    }
}

/// Puts the calling thread, and every thread it starts from now on, on the
/// generator's CPU, having checked that the runtime's are accepted too.
/// Returns the placement in words. Call once, before any other thread exists.
pub fn place_generator(split: bool) -> Result<String, String> {
    let p = PLACEMENT.get_or_init(|| Placement::detect(split));
    run_on(&p.runtime)?;
    run_on(&p.generator)?;
    Ok(format!(
        "generator on cpu {:?}, runtime on cpu {:?}, of {} the process may use",
        p.generator, p.runtime, p.allowed
    ))
}

/// Runs `f` on the runtime's CPUs — the threads it starts stay there — then
/// returns the calling thread to the generator's.
pub fn on_runtime_cpus<R>(f: impl FnOnce() -> R) -> R {
    let p = PLACEMENT.get().expect("place_generator ran first");
    run_on(&p.runtime).expect("the kernel accepted this placement before");
    let out = f();
    run_on(&p.generator).expect("the kernel accepted this placement before");
    out
}

/// Runs `f` on the generator's CPU and, where the runtime has its own, on
/// the runtime's too.
pub fn on_each_side(mut f: impl FnMut()) {
    f();
    let p = PLACEMENT.get().expect("place_generator ran first");
    if p.runtime != p.generator {
        on_runtime_cpus(f);
    }
}

fn run_on(cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        *mask.get_mut(cpu / 64).ok_or(format!("cpu {cpu} is beyond the mask"))? |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` outlives the call and `cpusetsize` is its size in bytes;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity to {cpus:?}: {}", std::io::Error::last_os_error()))
    }
}
