//! Per-node resource models: CPU, disk, and memory (dirty page cache).
//!
//! Each model is passive — the engine drives it and schedules completion
//! events — but owns its own utilization accounting. Counters accumulate
//! continuously so the sampler can diff them at any boundary, exactly the
//! way real monitors diff `/proc` counters.

use mscope_sim::{SimDuration, SimTime};

/// Multi-core CPU with non-preemptive slot scheduling.
///
/// A "burst" occupies one core for its duration. When all cores are busy the
/// engine queues the burst. `speed` scales demand (DVFS model: 1.0 nominal).
///
/// Utilization accounting integrates busy-core-time and iowait-core-time;
/// call [`CpuModel::accumulate`] *before* any state change.
#[derive(Debug, Clone)]
pub struct CpuModel {
    cores: u32,
    /// Relative clock speed (demand divisor).
    speed: f64,
    /// Bursts currently occupying cores.
    running: u32,
    /// Jobs currently blocked on IO at this node (commit stalls etc.);
    /// drives the iowait counter.
    blocked_on_io: u32,
    last_acc: SimTime,
    busy_core_us: u64,
    iowait_core_us: u64,
}

impl CpuModel {
    /// Creates an idle CPU with the given core count.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: u32) -> Self {
        assert!(cores > 0, "cpu needs at least one core");
        CpuModel {
            cores,
            speed: 1.0,
            running: 0,
            blocked_on_io: 0,
            last_acc: SimTime::ZERO,
            busy_core_us: 0,
            iowait_core_us: 0,
        }
    }

    /// Core count.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Current relative speed.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Sets the relative clock speed (DVFS). Affects bursts started after
    /// the change.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive.
    pub fn set_speed(&mut self, now: SimTime, speed: f64) {
        assert!(speed > 0.0, "cpu speed must be positive");
        self.accumulate(now);
        self.speed = speed;
    }

    /// Bursts currently running.
    pub fn running(&self) -> u32 {
        self.running
    }

    /// Integrates utilization counters up to `now`. Idempotent for equal
    /// `now`; must be called before every state change.
    pub fn accumulate(&mut self, now: SimTime) {
        let dt = (now - self.last_acc).as_micros();
        if dt == 0 {
            self.last_acc = now;
            return;
        }
        let busy = self.running.min(self.cores) as u64;
        self.busy_core_us += busy * dt;
        let idle = (self.cores as u64).saturating_sub(busy);
        // One writeback/commit thread's worth of iowait per idle core that
        // has a blocked job to wait for — classic iowait semantics: idle CPU
        // with outstanding IO.
        let iowait = idle.min(self.blocked_on_io as u64);
        self.iowait_core_us += iowait * dt;
        self.last_acc = now;
    }

    /// Starts a burst if a core is free; returns the burst's completion time
    /// (demand scaled by speed) or `None` if saturated.
    pub fn try_start(&mut self, now: SimTime, demand: SimDuration) -> Option<SimTime> {
        self.accumulate(now);
        if self.running >= self.cores {
            return None;
        }
        self.running += 1;
        Some(now + self.scaled(demand))
    }

    /// Finishes a running burst and starts the next one on the core it
    /// freed, in one step — [`CpuModel::finish`] then
    /// [`CpuModel::try_start`], except that nothing can take the core in
    /// between, so the start cannot be refused. Returns the new burst's
    /// completion time.
    ///
    /// # Panics
    ///
    /// Panics if no burst is running.
    pub fn hand_over(&mut self, now: SimTime, demand: SimDuration) -> SimTime {
        self.accumulate(now);
        assert!(self.running > 0, "cpu hand-over with no running burst");
        now + self.scaled(demand)
    }

    /// Scales a demand by the current speed.
    pub fn scaled(&self, demand: SimDuration) -> SimDuration {
        demand.mul_f64(1.0 / self.speed)
    }

    /// Marks a burst finished, freeing its core.
    ///
    /// # Panics
    ///
    /// Panics if no burst is running.
    pub fn finish(&mut self, now: SimTime) {
        self.accumulate(now);
        assert!(self.running > 0, "cpu finish with no running burst");
        self.running -= 1;
    }

    /// Registers a job entering an IO-blocked state.
    pub fn block_on_io(&mut self, now: SimTime) {
        self.accumulate(now);
        self.blocked_on_io += 1;
    }

    /// Registers a job leaving the IO-blocked state.
    ///
    /// # Panics
    ///
    /// Panics if nothing was blocked.
    pub fn unblock_io(&mut self, now: SimTime) {
        self.accumulate(now);
        assert!(self.blocked_on_io > 0, "io unblock with nothing blocked");
        self.blocked_on_io -= 1;
    }

    /// Cumulative busy core-microseconds.
    pub fn busy_core_us(&self) -> u64 {
        self.busy_core_us
    }

    /// Cumulative iowait core-microseconds.
    pub fn iowait_core_us(&self) -> u64 {
        self.iowait_core_us
    }
}

/// FCFS disk with separate accounting for busy time, bytes, and ops.
///
/// A write occupies the device for `bytes / bandwidth` (plus fixed per-op
/// latency) after any already-queued work. `submit_write_at_rate` lets
/// callers model slower effective throughput (sync-heavy commit-log
/// flushing) without changing the device's nominal bandwidth.
#[derive(Debug, Clone)]
pub struct DiskModel {
    /// Nominal write bandwidth, bytes/µs.
    bw_per_us: f64,
    /// Fixed per-operation latency.
    op_latency: SimDuration,
    busy_until: SimTime,
    last_acc: SimTime,
    busy_us: u64,
    bytes_written: u64,
    ops: u64,
}

impl DiskModel {
    /// Creates a disk with `bandwidth` bytes/second and 100 µs per-op
    /// latency.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not positive.
    pub fn new(bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "disk bandwidth must be positive");
        DiskModel {
            bw_per_us: bandwidth / 1e6,
            op_latency: SimDuration::from_micros(100),
            busy_until: SimTime::ZERO,
            last_acc: SimTime::ZERO,
            busy_us: 0,
            bytes_written: 0,
            ops: 0,
        }
    }

    /// Integrates busy time up to `now`; call before every state change and
    /// at every sample boundary.
    pub fn accumulate(&mut self, now: SimTime) {
        if now <= self.last_acc {
            return;
        }
        // The device is busy from `last_acc` until `busy_until` (FCFS keeps
        // the busy period contiguous once work is queued).
        let busy_end = self.busy_until.min(now);
        if busy_end > self.last_acc {
            self.busy_us += (busy_end - self.last_acc).as_micros();
        }
        self.last_acc = now;
    }

    /// Queues a write at nominal bandwidth; returns its completion time.
    pub fn submit_write(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.submit_write_at_rate(now, bytes, self.bw_per_us * 1e6)
    }

    /// Queues a write that proceeds at `rate` bytes/second (≤ nominal for
    /// sync-heavy patterns); returns its completion time.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn submit_write_at_rate(&mut self, now: SimTime, bytes: u64, rate: f64) -> SimTime {
        assert!(rate > 0.0, "disk write rate must be positive");
        self.accumulate(now);
        let start = self.busy_until.max(now);
        let dur =
            SimDuration::from_micros((bytes as f64 / (rate / 1e6)).ceil() as u64) + self.op_latency;
        self.busy_until = start + dur;
        self.bytes_written += bytes;
        self.ops += 1;
        self.busy_until
    }

    /// `true` if the device is busy at `t`.
    pub fn is_busy_at(&self, t: SimTime) -> bool {
        t < self.busy_until
    }

    /// Instant the current work queue drains.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Cumulative device-busy microseconds (up to the last `accumulate`).
    pub fn busy_us(&self) -> u64 {
        self.busy_us
    }

    /// Cumulative bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Cumulative write operations.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

/// Dirty-page-cache model.
///
/// Writes land in memory as dirty pages; background writeback drains them
/// cheaply; crossing the high watermark triggers forced recycling (the
/// engine seizes CPU for the drain duration — the paper's scenario B).
#[derive(Debug, Clone)]
pub struct MemoryModel {
    total_bytes: u64,
    dirty_bytes: u64,
    dirty_high: u64,
    dirty_low: u64,
    /// Baseline resident set (non-cache), for the `mem_used` gauge.
    baseline_used: u64,
    /// Set while a forced recycle is in progress.
    recycling: bool,
}

/// Size of one page in the dirty-page accounting (4 KiB, like Linux).
pub const PAGE_BYTES: u64 = 4096;

impl MemoryModel {
    /// Creates the model with the given capacity and watermarks.
    ///
    /// # Panics
    ///
    /// Panics if watermarks are inverted or exceed total.
    pub fn new(total_bytes: u64, dirty_high: u64, dirty_low: u64) -> Self {
        assert!(dirty_low <= dirty_high, "dirty watermarks inverted");
        assert!(dirty_high <= total_bytes, "dirty high exceeds total memory");
        MemoryModel {
            total_bytes,
            dirty_bytes: 0,
            dirty_high,
            dirty_low,
            baseline_used: total_bytes / 5,
            recycling: false,
        }
    }

    /// Adds freshly written bytes to the dirty set. Returns `true` if this
    /// write pushed the dirty set over the high watermark (and no recycle is
    /// already running) — the engine's cue to start forced recycling.
    pub fn write(&mut self, bytes: u64) -> bool {
        self.dirty_bytes = (self.dirty_bytes + bytes).min(self.total_bytes);
        self.dirty_bytes >= self.dirty_high && !self.recycling
    }

    /// Background writeback: drains up to `max_bytes`; returns bytes
    /// actually drained (to be written to disk by the caller).
    pub fn background_writeback(&mut self, max_bytes: u64) -> u64 {
        let drained = self.dirty_bytes.min(max_bytes);
        self.dirty_bytes -= drained;
        drained
    }

    /// Begins forced recycling; returns the bytes that will be drained
    /// (down to the low watermark).
    ///
    /// # Panics
    ///
    /// Panics if a recycle is already in progress.
    pub fn begin_recycle(&mut self) -> u64 {
        assert!(!self.recycling, "recycle already in progress");
        self.recycling = true;
        self.dirty_bytes.saturating_sub(self.dirty_low)
    }

    /// Completes forced recycling, dropping the dirty set to the low
    /// watermark.
    pub fn end_recycle(&mut self) {
        debug_assert!(self.recycling, "end_recycle without begin");
        self.dirty_bytes = self.dirty_bytes.min(self.dirty_low);
        self.recycling = false;
    }

    /// `true` while a forced recycle runs.
    pub fn is_recycling(&self) -> bool {
        self.recycling
    }

    /// Current dirty bytes.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_bytes
    }

    /// Current dirty pages (4 KiB units).
    pub fn dirty_pages(&self) -> u64 {
        self.dirty_bytes / PAGE_BYTES
    }

    /// Approximate memory in use (baseline + dirty cache).
    pub fn used_bytes(&self) -> u64 {
        (self.baseline_used + self.dirty_bytes).min(self.total_bytes)
    }

    /// Total RAM.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn cpu_slots_and_busy_accounting() {
        let mut cpu = CpuModel::new(2);
        let d = SimDuration::from_millis(10);
        let c1 = cpu.try_start(ms(0), d).unwrap();
        assert_eq!(c1, ms(10));
        assert!(cpu.try_start(ms(0), d).is_some());
        assert!(cpu.try_start(ms(0), d).is_none(), "only 2 cores");
        cpu.finish(ms(10));
        cpu.finish(ms(10));
        cpu.accumulate(ms(20));
        // 2 cores busy for 10ms = 20_000 core-µs.
        assert_eq!(cpu.busy_core_us(), 20_000);
    }

    #[test]
    fn cpu_speed_scales_demand() {
        let mut cpu = CpuModel::new(1);
        cpu.set_speed(ms(0), 0.5);
        let done = cpu.try_start(ms(0), SimDuration::from_millis(10)).unwrap();
        assert_eq!(done, ms(20), "half speed doubles burst length");
        assert_eq!(
            cpu.scaled(SimDuration::from_millis(4)),
            SimDuration::from_millis(8)
        );
    }

    #[test]
    fn cpu_iowait_needs_idle_core_and_blocked_job() {
        let mut cpu = CpuModel::new(2);
        // One blocked job, both cores idle → 1 core of iowait.
        cpu.block_on_io(ms(0));
        cpu.accumulate(ms(10));
        assert_eq!(cpu.iowait_core_us(), 10_000);
        // Saturate the CPU: no idle core → no more iowait accrual.
        cpu.try_start(ms(10), SimDuration::from_millis(100))
            .unwrap();
        cpu.try_start(ms(10), SimDuration::from_millis(100))
            .unwrap();
        cpu.accumulate(ms(20));
        assert_eq!(cpu.iowait_core_us(), 10_000);
        cpu.unblock_io(ms(20));
    }

    #[test]
    #[should_panic(expected = "no running burst")]
    fn cpu_finish_underflow_panics() {
        CpuModel::new(1).finish(ms(1));
    }

    #[test]
    fn disk_fcfs_and_utilization() {
        let mut disk = DiskModel::new(1e6); // 1 MB/s → 1 byte/µs
        let done1 = disk.submit_write(ms(0), 1000); // 1000µs + 100µs op latency
        assert_eq!(done1, SimTime::from_micros(1100));
        // Second write queues behind the first.
        let done2 = disk.submit_write(ms(0), 1000);
        assert_eq!(done2, SimTime::from_micros(2200));
        assert!(disk.is_busy_at(ms(1)));
        assert!(!disk.is_busy_at(ms(3)));
        disk.accumulate(ms(10));
        assert_eq!(disk.busy_us(), 2200);
        assert_eq!(disk.bytes_written(), 2000);
        assert_eq!(disk.ops(), 2);
    }

    #[test]
    fn disk_gap_not_counted_busy() {
        let mut disk = DiskModel::new(1e6);
        disk.submit_write(ms(0), 900); // busy till 1000µs
        disk.accumulate(ms(5));
        disk.submit_write(ms(5), 900); // busy 5000..6000µs
        disk.accumulate(ms(10));
        assert_eq!(disk.busy_us(), 2000, "idle gap must not count");
    }

    #[test]
    fn disk_custom_rate_slows_flush() {
        let mut disk = DiskModel::new(100e6);
        let done = disk.submit_write_at_rate(ms(0), 1_000_000, 10e6);
        // 1 MB at 10 MB/s = 100 ms.
        assert_eq!(done, SimTime::from_micros(100_100));
    }

    #[test]
    fn memory_watermark_trigger_and_recycle() {
        let mut mem = MemoryModel::new(1 << 20, 8192, 4096);
        assert!(!mem.write(4096));
        assert!(mem.write(4096), "crossing high watermark triggers");
        assert_eq!(mem.dirty_pages(), 2);
        let drained = mem.begin_recycle();
        assert_eq!(drained, 4096);
        assert!(mem.is_recycling());
        // While recycling, further writes never re-trigger.
        assert!(!mem.write(100_000));
        mem.end_recycle();
        assert_eq!(mem.dirty_bytes(), 4096);
        assert!(!mem.is_recycling());
    }

    #[test]
    fn memory_background_writeback_drains() {
        let mut mem = MemoryModel::new(1 << 20, 1 << 19, 0);
        mem.write(10_000);
        assert_eq!(mem.background_writeback(4_000), 4_000);
        assert_eq!(mem.background_writeback(1 << 20), 6_000);
        assert_eq!(mem.dirty_bytes(), 0);
    }

    #[test]
    fn memory_used_gauge_tracks_dirty() {
        let mut mem = MemoryModel::new(1000 * PAGE_BYTES, 500 * PAGE_BYTES, 0);
        let before = mem.used_bytes();
        mem.write(10 * PAGE_BYTES);
        assert_eq!(mem.used_bytes() - before, 10 * PAGE_BYTES);
        assert_eq!(mem.total_bytes(), 1000 * PAGE_BYTES);
    }

    #[test]
    #[should_panic(expected = "watermarks inverted")]
    fn memory_bad_watermarks_panic() {
        MemoryModel::new(1 << 20, 100, 200);
    }
}
