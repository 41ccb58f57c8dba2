//! Golden seeded fault schedules. The chaos matrices in
//! `tests/service_faults.rs` (160 submissions, 9 faults) and
//! `tests/net_chaos.rs` (60 requests, 10 faults) draw their plans from
//! these seeds; pinning the exact schedules keeps every chaos run firing
//! the same faults at the same keys, whatever the plan type underneath.

use std::time::Duration;

use wazi_net::WireFault;
use wazi_service::Fault;

fn us(micros: u64) -> Duration {
    Duration::from_micros(micros)
}

#[test]
fn seeded_service_schedules_are_pinned() {
    use Fault::{ExecDelay, KernelPanic, QueueStall};
    let golden: [(u64, Vec<(u64, Fault)>); 3] = [
        (
            1,
            vec![
                (5, KernelPanic),
                (7, KernelPanic),
                (9, KernelPanic),
                (36, ExecDelay(us(940))),
                (41, ExecDelay(us(442))),
                (46, QueueStall(us(375))),
                (65, QueueStall(us(156))),
                (92, QueueStall(us(489))),
                (155, ExecDelay(us(306))),
            ],
        ),
        (
            7,
            vec![
                (12, QueueStall(us(396))),
                (29, ExecDelay(us(594))),
                (31, KernelPanic),
                (45, ExecDelay(us(901))),
                (123, QueueStall(us(205))),
                (129, KernelPanic),
                (143, ExecDelay(us(392))),
                (149, KernelPanic),
                (159, QueueStall(us(266))),
            ],
        ),
        (
            42,
            vec![
                (14, QueueStall(us(307))),
                (18, ExecDelay(us(764))),
                (38, ExecDelay(us(895))),
                (50, QueueStall(us(362))),
                (68, ExecDelay(us(605))),
                (125, KernelPanic),
                (126, KernelPanic),
                (131, KernelPanic),
                (156, QueueStall(us(230))),
            ],
        ),
    ];
    for (seed, want) in golden {
        let plan = Fault::seeded_plan(seed, 160, 9);
        assert_eq!(plan.schedule().collect::<Vec<_>>(), want, "seed {seed}");
    }
}

#[test]
fn seeded_wire_schedules_are_pinned() {
    use WireFault::{CorruptFrame, DropConnection, StallRead, TruncateFrame};
    let golden: [(u64, Vec<(u64, WireFault)>); 3] = [
        (
            1,
            vec![
                (6, CorruptFrame),
                (15, TruncateFrame),
                (17, DropConnection),
                (25, TruncateFrame),
                (27, TruncateFrame),
                (28, DropConnection),
                (29, CorruptFrame),
                (34, CorruptFrame),
                (41, StallRead(us(430))),
                (52, StallRead(us(727))),
            ],
        ),
        (
            7,
            vec![
                (7, DropConnection),
                (9, StallRead(us(453))),
                (10, DropConnection),
                (11, CorruptFrame),
                (32, CorruptFrame),
                (36, CorruptFrame),
                (42, StallRead(us(924))),
                (44, TruncateFrame),
                (48, TruncateFrame),
                (56, TruncateFrame),
            ],
        ),
        (
            42,
            vec![
                (0, TruncateFrame),
                (1, TruncateFrame),
                (8, CorruptFrame),
                (37, StallRead(us(640))),
                (40, StallRead(us(805))),
                (41, DropConnection),
                (42, CorruptFrame),
                (43, CorruptFrame),
                (48, DropConnection),
                (58, TruncateFrame),
            ],
        ),
    ];
    for (seed, want) in golden {
        let plan = WireFault::seeded_plan(seed, 60, 10);
        assert_eq!(plan.schedule().collect::<Vec<_>>(), want, "seed {seed}");
    }
}
