//! Host-speed correction of wall-clock timings.
//!
//! The benchmark runs on shared hosts whose speed drifts with co-tenant
//! load, by up to 2x over seconds on the 2-vCPU machine its bounds were set
//! on. A wall time alone then measures the host as much as the program.
//! So every timed stretch is bracketed by runs of a fixed reference kernel,
//! on as many threads as the timed work keeps busy, and each timing is
//! scaled by `NOMINAL_MS / reference_ms` (the reference taken as the
//! geometric mean of the runs before and after the stretch). A scaled
//! timing reads in milliseconds at the host speed at which the reference
//! takes [`NOMINAL_MS`]. The reference is the benchmark's own code and
//! shares nothing with the program, so a program change that slows an
//! operation moves its scaled time by the same share as its wall time.
//!
//! The reference mirrors the kind of work it stands in for. For
//! `bursty-real` and `fleet-storm` it is compute on an L2-resident buffer,
//! on the threads the workload keeps busy. `forward` allocates fresh
//! tensors on every call and spends about 40% of its time in the kernel
//! faulting their pages in; on a virtual machine that cost, and the cost
//! of touching cold memory, drift apart from the cost of compute. Over 81
//! short runs on the machine the bounds were set on, the forward pass
//! slowed by 1.6% for each 1% a reference of compute and page faults
//! slowed, but by 1.04% for each 1% a reference that maps fresh memory,
//! fills it and reads it back slowed. The latter is its reference.

use std::hint::black_box;
use std::time::Instant;

/// Reference time the scaled timings are expressed at: about what one
/// reference run takes on an idle core of the machine the bounds were set
/// on (Xeon, AVX2), so scaled and wall times read alike there.
pub const NOMINAL_MS: f64 = 10.0;
/// Floats each reference thread sweeps: 128 KiB, resident in L2.
const FLOATS: usize = 32 * 1024;
/// Sweeps per reference run.
const PASSES: usize = 270;
/// Dependent integer-hash steps per sweep: the scalar, latency-bound half
/// of the kernel, beside the vectorised float sweep.
const CHAIN: usize = 12 * 1024;
/// Fresh-memory rounds that take about [`NOMINAL_MS`] on that machine.
const FRESH_ROUNDS: usize = 7;
/// Bytes of the mapping of one fresh-memory round: above glibc's largest
/// mmap threshold (32 MiB), so every round maps and unmaps anew.
const FRESH_REGION: usize = 40 << 20;
/// Bytes each fresh-memory round fills, faulting their pages in, and then
/// reads [`FRESH_READS`] times.
const FRESH_BYTES: usize = 1 << 20;
const FRESH_READS: usize = 4;

/// The work a reference run does.
#[derive(Clone, Copy)]
pub enum Reference {
    /// Float sweeps and integer hashes on `threads` threads.
    Compute { threads: usize },
    /// Fills and reads freshly mapped memory.
    FreshMemory,
}

/// Reference-kernel clock of one workload.
pub struct HostSpeed {
    kind: Reference,
    /// One L2-resident buffer per compute thread.
    buffers: Vec<Vec<f32>>,
    /// Milliseconds of the last reference run.
    last_ms: f64,
    /// Every reference run, milliseconds.
    samples: Vec<f64>,
}

impl HostSpeed {
    /// A clock that runs `kind` once to start.
    pub fn new(kind: Reference) -> Self {
        let threads = match kind {
            Reference::Compute { threads } => threads.max(1),
            Reference::FreshMemory => 0,
        };
        let mut speed = Self {
            kind,
            buffers: (0..threads).map(|_| vec![1.0; FLOATS]).collect(),
            last_ms: 0.0,
            samples: Vec::new(),
        };
        speed.start();
        speed
    }

    /// Threads the pool of `bursty-real` fans a batch out to: its default
    /// four simulated workers, capped at the host's parallelism.
    pub fn pool_threads() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
    }

    /// Runs the reference before a timed stretch.
    pub fn start(&mut self) {
        self.last_ms = self.reference_ms();
    }

    /// Runs the reference after a timed stretch and returns the factor that
    /// scales the stretch's wall times to nominal host speed. The next
    /// stretch may start right away: this run also brackets it.
    pub fn factor(&mut self) -> f64 {
        let now = self.reference_ms();
        let factor = NOMINAL_MS / (self.last_ms * now).sqrt();
        self.last_ms = now;
        factor
    }

    /// Reference runs made so far, milliseconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// One reference run. With several compute threads, half of the
    /// sweeps run on one thread, then half on every thread at once, as
    /// `bursty-real` runs its serial simulation around parallel batches.
    fn reference_ms(&mut self) -> f64 {
        let t = Instant::now();
        match self.kind {
            Reference::FreshMemory => fresh_memory(FRESH_ROUNDS),
            Reference::Compute { .. } => {
                if let [only] = self.buffers.as_mut_slice() {
                    black_box(kernel(only, PASSES));
                } else {
                    black_box(kernel(&mut self.buffers[0], PASSES / 2));
                    std::thread::scope(|scope| {
                        for buf in &mut self.buffers {
                            scope.spawn(move || black_box(kernel(buf, PASSES / 2)));
                        }
                    });
                }
            }
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples.push(ms);
        ms
    }
}

/// Maps a fresh zeroed region `rounds` times, fills its first
/// [`FRESH_BYTES`] (faulting their pages in), reads them back and unmaps
/// the region again.
fn fresh_memory(rounds: usize) {
    for _ in 0..rounds {
        let mut region = vec![0u8; FRESH_REGION];
        for (i, b) in region[..FRESH_BYTES].iter_mut().enumerate() {
            *b = i as u8;
        }
        let mut sum = 0u64;
        for _ in 0..FRESH_READS {
            for b in black_box(&region[..FRESH_BYTES]) {
                sum = sum.wrapping_add(u64::from(*b));
            }
        }
        black_box(sum);
    }
}

/// The reference work: float sweeps over an L2-resident buffer
/// interleaved with a dependent chain of integer hashes.
fn kernel(buf: &mut [f32], passes: usize) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..passes {
        let buf = black_box(&mut *buf);
        for (i, x) in buf.iter_mut().enumerate() {
            *x = *x * 0.999_9 + (i & 15) as f32 * 1e-4;
        }
        for _ in 0..CHAIN {
            h = (h ^ (h >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
        let at = (h % buf.len() as u64) as usize;
        buf[at] += 1.0;
    }
    h ^ u64::from(buf[0].to_bits())
}
