//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are small shared VMs whose speed
//! drifts by tens of percent over seconds and minutes (a busy sibling
//! hyperthread, a neighbour in the cache): over ten back-to-back runs of
//! one build the raw end-to-end times spread by 17–45% of their median,
//! more than any bound worth fixing. So the end-to-end pass keeps taking
//! a **calibration sample** between requests — fixed work of the bench's
//! own, independent of anything in the repo — and reports every time as
//!
//! ```text
//! calibrated = raw × CAL_REF_NS ÷ (calibration samples next to the request)
//! ```
//!
//! i.e. in milliseconds of a host on which a sample takes exactly
//! [`CAL_REF_NS`]. The run's raw wall time and its mean slowdown against
//! the reference are printed beside the calibrated numbers.
//!
//! The sample is half arithmetic (four independent multiply–xor chains,
//! bound by issue ports, which a busy sibling hyperthread takes away) and
//! half dependent loads over a 256 KiB table that is touched first, so
//! that the walk times the L2 and not whatever the last request left in
//! it. Candidates were compared on the reference host by how far they cut
//! the spread between 15-second windows of one long run (raw: 9–23%): the
//! port-bound chains and the pre-touched walk each reach 3–4% on both the
//! `nas_warm` and the `module_cold` traffic; a single dependent chain (5–15%)
//! and an untouched walk (1% on one, 27% on the other) do not hold up.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one calibration sample takes on the reference host in a quiet
/// moment. Fixes the unit only: a different value rescales every
/// calibrated time alike.
pub const CAL_REF_NS: f64 = 200_000.0;

/// Table entries (`u32`): 256 KiB, resident in L2.
const TABLE: usize = 64 << 10;
/// Dependent loads per sample.
const LOADS: usize = 20_000;
/// Rounds of the four arithmetic chains per sample.
const ROUNDS: u64 = 50_000;
/// A sample is taken before a request once this long has passed since the
/// last one: before every request on the millisecond-scale workloads,
/// every few dozen requests on `plan_hot`.
const EVERY: Duration = Duration::from_millis(8);

/// The calibration kernel.
pub struct Calibrator {
    table: Vec<u32>,
}

impl Calibrator {
    /// Build the table: one cycle through all entries (Sattolo's shuffle
    /// from a fixed stream), so a walk never settles into a short loop.
    pub fn new() -> Calibrator {
        let mut table: Vec<u32> = (0..TABLE as u32).collect();
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..TABLE).rev() {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            table.swap(i, (s >> 33) as usize % i);
        }
        Calibrator { table }
    }

    /// Time one sample, in nanoseconds.
    pub fn sample(&self) -> f64 {
        // Untimed: one load per cache line brings the table back.
        let touched = self.table.iter().step_by(16).fold(0u32, |a, x| a ^ x);
        black_box(touched);
        let t = Instant::now();
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for i in 0..black_box(ROUNDS) {
            a = (a ^ (a >> 7))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(i);
            b = (b ^ (b >> 9))
                .wrapping_mul(0x94D0_49BB_1331_11EB)
                .wrapping_add(i);
            c = (c ^ (c >> 11))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i);
            d = (d ^ (d >> 13))
                .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                .wrapping_add(i);
        }
        let mut i = (a ^ b ^ c ^ d) as usize % TABLE;
        for _ in 0..LOADS {
            i = self.table[i] as usize;
        }
        black_box(i);
        t.elapsed().as_nanos() as f64
    }
}

/// The scale (`CAL_REF_NS ÷ sample`) of the most recent sample, which is
/// retaken once it is [`EVERY`] old: for callers that time their own
/// sections, such as the traced pass's in-process walks.
pub struct Scale<'a> {
    calibrator: &'a Calibrator,
    taken: Instant,
    scale: f64,
}

impl<'a> Scale<'a> {
    /// Take the first sample.
    pub fn new(calibrator: &'a Calibrator) -> Scale<'a> {
        Scale {
            calibrator,
            taken: Instant::now(),
            scale: CAL_REF_NS / calibrator.sample(),
        }
    }

    /// The factor to multiply a raw time measured now by.
    pub fn current(&mut self) -> f64 {
        if self.taken.elapsed() >= EVERY {
            self.scale = CAL_REF_NS / self.calibrator.sample();
            self.taken = Instant::now();
        }
        self.scale
    }
}

enum Event {
    Cal(f64),
    Request { row: usize, ns: f64, ok: bool },
}

/// One request with the scale of the calibration samples around it.
pub struct Timed {
    /// Row index.
    pub row: usize,
    /// Measured latency, ns.
    pub raw_ns: f64,
    /// `CAL_REF_NS ÷ sample`: multiply a raw time by it.
    pub scale: f64,
    /// Whether the answer passed every check.
    pub ok: bool,
}

/// The requests one connection sent, in order, with the calibration
/// samples taken between them.
pub struct Log<'a> {
    calibrator: &'a Calibrator,
    last: Option<Instant>,
    events: Vec<Event>,
}

impl<'a> Log<'a> {
    /// An empty log.
    pub fn new(calibrator: &'a Calibrator) -> Log<'a> {
        Log {
            calibrator,
            last: None,
            events: Vec::new(),
        }
    }

    fn take_sample(&mut self) {
        self.events.push(Event::Cal(self.calibrator.sample()));
        self.last = Some(Instant::now());
    }

    /// Call before sending a request: samples if one is due.
    pub fn before_request(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.take_sample();
        }
    }

    /// Record a finished request.
    pub fn request(&mut self, row: usize, ns: f64, ok: bool) {
        self.events.push(Event::Request { row, ns, ok });
    }

    /// Call after the last request: the closing sample.
    pub fn finish(&mut self) {
        self.take_sample();
    }

    /// Nanoseconds spent sampling (to subtract from wall and CPU time).
    pub fn cal_ns(&self) -> f64 {
        self.samples().sum()
    }

    fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.events.iter().filter_map(|e| match e {
            Event::Cal(ns) => Some(*ns),
            Event::Request { .. } => None,
        })
    }

    /// `CAL_REF_NS ÷` the mean sample: the scale for a time that spans the
    /// whole log (set-up, CPU time).
    pub fn mean_scale(&self) -> f64 {
        let n = self.samples().count();
        if n == 0 {
            1.0
        } else {
            CAL_REF_NS * n as f64 / self.cal_ns()
        }
    }

    /// Every request, scaled by the mean of the sample before it and the
    /// sample after it.
    pub fn requests(&self) -> Vec<Timed> {
        let mut out: Vec<Timed> = Vec::new();
        let mut before = None;
        let mut pending = 0;
        for e in &self.events {
            match e {
                Event::Request { row, ns, ok } => {
                    out.push(Timed {
                        row: *row,
                        raw_ns: *ns,
                        scale: before.map_or(1.0, |b: f64| CAL_REF_NS / b),
                        ok: *ok,
                    });
                    pending += 1;
                }
                Event::Cal(after) => {
                    let n = out.len();
                    for t in &mut out[n - pending..] {
                        t.scale = CAL_REF_NS / ((before.unwrap_or(*after) + after) / 2.0);
                    }
                    pending = 0;
                    before = Some(*after);
                }
            }
        }
        out
    }
}
