//! The delivery sweep engine: the one place the runtime's deterministic
//! delivery discipline lives. The star links, an edge's member links, the
//! root's uplinks, a gossip mesh's coordinator links and the
//! secure-aggregation `MaskShare` reconstruction all drain through it:
//!
//! * **Order.** A sweep visits its seats in ascending index order and pops
//!   at most one delivery per link.
//! * **Latency gate.** A seat scheduled `latency` sweeps behind is not read
//!   before sweep `latency`; until then it holds traffic for later.
//! * **Held traffic.** Frames a fault wrapper holds (reorder, partition,
//!   retransmission) show in [`Transport::has_pending`] and keep the seat
//!   in later sweeps.
//! * **Faulted frames.** A lost frame gets a fabricated
//!   [`NackReason::CorruptFrame`] refusal and burns no straggler-deadline
//!   slot; a damaged one goes through the collecting state machine's
//!   [`FedAvgServer::deliver_corrupt`], which charges the slot. With no
//!   collector (a closed round, a gossip daemon) both get the fabricated
//!   refusal. The refusal triggers the wrapper's retransmission.
//! * **Termination.** A phase ends at the first sweep at or past the
//!   largest latency in which nothing was delivered and nothing is held.
//!
//! [`drive`] ticks the fault plan's clock once per sweep; fabrics plug in
//! as [`Seats`] handlers.

use crate::fault::FaultPlan;
use crate::{Delivery, FedAvgServer, Message, NackReason, Result, Transport};

/// What one delivery sweep over a set of links did.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgePump {
    /// Whether any message was delivered this sweep.
    pub delivered: bool,
    /// Whether a latency-gated link still holds traffic for a later sweep.
    pub pending_future: bool,
}

impl EdgePump {
    /// Folds another walk of the same sweep into this one.
    pub(crate) fn absorb(&mut self, other: EdgePump) {
        self.delivered |= other.delivered;
        self.pending_future |= other.pending_future;
    }
}

/// A set of links the engine sweeps, and what their deliveries mean.
pub(crate) trait Seats {
    /// The runtime-side link end of `seat` and the sweeps its traffic lags.
    fn seat(&self, seat: usize) -> (&dyn Transport, usize);

    /// Handles an intact frame from `seat`.
    fn deliver(&mut self, seat: usize, message: Message) -> Result<()>;

    /// The state machine damaged frames are charged to (`None`: nothing
    /// collects).
    fn collector(&mut self) -> Option<&mut FedAvgServer> {
        None
    }

    /// Who the refusal of a faulted frame claiming `sender` on `seat` goes
    /// to.
    fn refusal_addressee(&self, _seat: usize, sender: usize) -> usize {
        sender
    }
}

/// One sweep over the seats among `0..count` holding traffic at its start.
/// A seat's pending state only changes on its own visit (and no agent
/// sends mid-phase), so this is the set of seats queued at sweep 0 minus
/// those drained since; idle seats are skipped without a read.
pub(crate) fn walk_pending<S: Seats + ?Sized>(
    seats: &mut S,
    count: usize,
    sweep: usize,
) -> Result<EdgePump> {
    let pending: Vec<usize> = (0..count)
        .filter(|&seat| seats.seat(seat).0.has_pending())
        .collect();
    walk_each(seats, pending, sweep)
}

/// One sweep over a fixed roster, each seat visited whether or not it holds
/// traffic (an empty visit still lets a fault wrapper draw its partition
/// window).
pub(crate) fn walk_each<S: Seats + ?Sized>(
    seats: &mut S,
    roster: impl IntoIterator<Item = usize>,
    sweep: usize,
) -> Result<EdgePump> {
    let mut tick = EdgePump::default();
    for seat in roster {
        visit(seats, seat, sweep, &mut tick)?;
    }
    Ok(tick)
}

/// Runs sweeps `first, first + 1, …` — ticking the fault plan's clock
/// before each — until the termination rule holds, and returns the last
/// sweep (a later phase of the same round continues the count from it).
pub(crate) fn drive(
    faults: Option<&FaultPlan>,
    first: usize,
    max_latency: usize,
    mut sweep_once: impl FnMut(usize) -> Result<EdgePump>,
) -> Result<usize> {
    let mut sweep = first;
    loop {
        if let Some(plan) = faults {
            plan.set_sweep(sweep);
        }
        let tick = sweep_once(sweep)?;
        if !tick.delivered && !tick.pending_future && sweep >= max_latency {
            return Ok(sweep);
        }
        sweep += 1;
    }
}

/// Drains seats `0..count` completely between rounds, in ascending order,
/// with the unchecked [`Transport::recv`]: outside a round a faulted frame
/// has nothing to be refused into and is simply lost. Returns whether
/// anything was delivered.
pub(crate) fn drain_idle<S: Seats + ?Sized>(seats: &mut S, count: usize) -> Result<bool> {
    let mut delivered = false;
    for seat in 0..count {
        while let Some(message) = seats.seat(seat).0.recv()? {
            delivered = true;
            seats.deliver(seat, message)?;
        }
    }
    Ok(delivered)
}

/// One seat's turn: the latency gate, at most one delivery, and its handler
/// or refusal.
fn visit<S: Seats + ?Sized>(
    seats: &mut S,
    seat: usize,
    sweep: usize,
    tick: &mut EdgePump,
) -> Result<()> {
    let (link, latency) = seats.seat(seat);
    let delivered = latency <= sweep
        && match link.recv_checked()? {
            Delivery::Empty => false,
            Delivery::Frame(message) => {
                seats.deliver(seat, message)?;
                true
            }
            Delivery::Faulted {
                sender,
                round,
                lost,
            } => {
                let refusals = match seats.collector() {
                    Some(server) if !lost => server.deliver_corrupt(sender, round),
                    _ => vec![Message::Nack {
                        client_id: seats.refusal_addressee(seat, sender),
                        round,
                        reason: NackReason::CorruptFrame,
                    }],
                };
                for refusal in &refusals {
                    seats.seat(seat).0.send(refusal)?;
                }
                true
            }
        };
    if delivered {
        tick.delivered = true;
    } else {
        tick.pending_future |= seats.seat(seat).0.has_pending();
    }
    Ok(())
}
