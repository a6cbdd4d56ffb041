//! Cache-aware thread placement for the scaling harness.
//!
//! The cores-vs-throughput curve (`mpeg-smooth scale`) wants each
//! worker to *own* its shards: a *static* block-cyclic shard→worker
//! assignment (worker `w` takes items `w, w + T, …`), the worker pinned to one CPU so the shards it first-touched stay in that
//! core's cache (and, on NUMA boxes, its local memory node). This
//! module provides the three pieces:
//!
//! * [`par_map_pinned`] — the statically-assigned, pinned counterpart of
//!   [`crate::par_map`]; results are placed by input index, so output is
//!   bit-identical to serial for any worker count (the assignment only
//!   changes *which thread* computes an item, never the item's input).
//! * [`pin_current_thread`] / [`pinning_supported`] — best-effort
//!   `sched_setaffinity` pinning on Linux, a graceful no-op elsewhere
//!   (the harness prints whether pinning was live instead of
//!   pretending).
//! * [`physical_cores`] / [`logical_cores`] — the physical-vs-logical
//!   distinction the harness prints, so a throughput curve measured
//!   across SMT siblings cannot masquerade as one measured across real
//!   cores.
//!
//! The pinning syscall is declared by hand (`extern "C"`): this build is
//! hermetic (no crates.io, so no `libc`), and one syscall does not
//! justify vendoring one. The `unsafe` surface is the single FFI call,
//! scoped to this module under `deny(unsafe_op_in_unsafe_fn)`.

#![allow(unsafe_code)]

/// Logical CPUs visible to this process
/// ([`std::thread::available_parallelism`], 1 if unknown).
pub fn logical_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Physical cores: unique `(physical id, core id)` pairs from
/// `/proc/cpuinfo`. Falls back to [`logical_cores`] when the file is
/// missing or unparsable (non-Linux, restricted container), so the
/// result is always ≥ 1 — callers compare it to `logical_cores()` to
/// detect SMT.
pub fn physical_cores() -> usize {
    physical_cores_from(&std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default())
        .unwrap_or_else(logical_cores)
}

/// Parses `/proc/cpuinfo` text; `None` when no complete
/// `(physical id, core id)` pair appears (e.g. non-x86 layouts).
fn physical_cores_from(cpuinfo: &str) -> Option<usize> {
    let mut pairs = std::collections::BTreeSet::new();
    let (mut package, mut core) = (None::<u64>, None::<u64>);
    for line in cpuinfo.lines() {
        let mut split = line.splitn(2, ':');
        let key = split.next().unwrap_or("").trim();
        let value = split.next().unwrap_or("").trim();
        match key {
            "physical id" => package = value.parse().ok(),
            "core id" => core = value.parse().ok(),
            "" => {
                // Blank line: end of one processor stanza.
                if let (Some(p), Some(c)) = (package, core) {
                    pairs.insert((p, c));
                }
                package = None;
                core = None;
            }
            _ => {}
        }
    }
    if let (Some(p), Some(c)) = (package, core) {
        pairs.insert((p, c)); // file without trailing blank line
    }
    if pairs.is_empty() {
        None
    } else {
        Some(pairs.len())
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t` as glibc lays it out: 1024 bits of CPU mask.
    #[repr(C)]
    struct CpuSet {
        bits: [u64; 16],
    }

    extern "C" {
        /// `sched_setaffinity(2)`; `pid == 0` targets the calling thread.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn pin(core: usize) -> bool {
        if core >= 16 * 64 {
            return false;
        }
        let mut set = CpuSet { bits: [0; 16] };
        set.bits[core / 64] |= 1u64 << (core % 64);
        // SAFETY: `set` is a live, correctly sized `cpu_set_t`-layout
        // value for the duration of the call; pid 0 addresses only the
        // calling thread, so no other thread's state is touched. The
        // kernel copies the mask before returning.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
        rc == 0
    }
}

/// Pins the calling thread to `core` (a logical CPU index). Returns
/// whether the pin took effect; always `false` off Linux. Callers pin
/// short-lived scoped workers, never the main thread — a pin outlives
/// nothing but the thread it binds.
pub fn pin_current_thread(core: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        affinity::pin(core)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = core;
        false
    }
}

/// Whether thread pinning actually works here (Linux with an
/// unrestricted affinity mask). Probes with a throwaway thread so the
/// caller's own affinity is never disturbed. `mpeg-smooth scale`
/// prints it as `pinning on`/`unavailable`.
pub fn pinning_supported() -> bool {
    std::thread::scope(|scope| {
        scope
            .spawn(|| pin_current_thread(0))
            .join()
            .unwrap_or(false)
    })
}

/// [`crate::par_map`] with **static block-cyclic assignment and pinned
/// workers**: worker `w` (pinned to logical CPU `w`, best-effort)
/// computes exactly the items `w, w + workers, w + 2·workers, …`.
///
/// Use this when the items are *stateful shards a worker should own*
/// (first-touch placement, cache residency across repeated calls with
/// the same `threads`); use [`crate::par_map`]'s dynamic cursor when
/// items are independent jobs of unpredictable cost. Results are placed
/// by input index, so the output — like `par_map`'s — is identical to
/// the serial map for every worker count.
///
/// Panics in `f` propagate to the caller.
pub fn par_map_pinned<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                scope.spawn(move || {
                    pin_current_thread(w);
                    ((w..n).step_by(workers))
                        .map(|i| (i, f(i, &items[i])))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pinned sweep worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for bucket in buckets {
        for (i, r) in bucket {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_pinned_preserves_input_order() {
        let items: Vec<usize> = (0..101).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = par_map_pinned(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_pinned_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_pinned(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map_pinned(4, &[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn core_counts_are_sane() {
        let logical = logical_cores();
        let physical = physical_cores();
        assert!(logical >= 1);
        assert!(physical >= 1);
        assert!(
            physical <= logical,
            "physical {physical} > logical {logical}"
        );
    }

    #[test]
    fn cpuinfo_parser_counts_unique_core_pairs() {
        // Two packages × two cores, each core listed twice (SMT).
        let text = "processor\t: 0\nphysical id\t: 0\ncore id\t: 0\n\n\
                    processor\t: 1\nphysical id\t: 0\ncore id\t: 1\n\n\
                    processor\t: 2\nphysical id\t: 1\ncore id\t: 0\n\n\
                    processor\t: 3\nphysical id\t: 1\ncore id\t: 1\n\n\
                    processor\t: 4\nphysical id\t: 0\ncore id\t: 0\n\n\
                    processor\t: 5\nphysical id\t: 0\ncore id\t: 1\n\n\
                    processor\t: 6\nphysical id\t: 1\ncore id\t: 0\n\n\
                    processor\t: 7\nphysical id\t: 1\ncore id\t: 1\n";
        assert_eq!(physical_cores_from(text), Some(4));
        assert_eq!(physical_cores_from(""), None);
        assert_eq!(physical_cores_from("model name: x\n"), None);
    }

    #[test]
    fn pinning_probe_does_not_panic() {
        // Result is platform-dependent; the call itself must be safe
        // and must not alter the calling thread's affinity.
        let _ = pinning_supported();
    }
}
