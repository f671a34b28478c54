//! Virtual-channel state: classification tags and the per-input-VC state
//! machine driven by the router pipeline.

use crate::flit::Flit;
use crate::ids::{AppId, Port};
use serde::{Deserialize, Serialize};

/// The 1-bit regional/global tag of §IV.A (VC regionalization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VcTag {
    /// Regional VC: native-vs-foreign priority decided dynamically by DPA.
    Regional,
    /// Global VC: foreign traffic always has priority over native traffic.
    Global,
}

/// Functional class of a VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VcClass {
    /// Escape VC of one message class; restricted to dimension-order routing
    /// so the escape sub-network is deadlock-free (Duato's theory).
    Escape { class: crate::ids::MsgClass },
    /// Fully-adaptive VC carrying the regional/global tag.
    Adaptive { tag: VcTag },
}

impl VcClass {
    /// The regional/global tag if this is an adaptive VC.
    pub fn tag(&self) -> Option<VcTag> {
        match self {
            VcClass::Adaptive { tag } => Some(*tag),
            VcClass::Escape { .. } => None,
        }
    }
}

/// Pipeline state of an input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcState {
    /// No packet allocated to this VC.
    Idle,
    /// Head flit arrived; route computation done, waiting for VC allocation.
    /// Holds the candidate adaptive output ports (up to two minimal
    /// productive directions), the escape (dimension-order) port, and the
    /// escape lane the packet must ride here (always 0 on non-wrapping
    /// topologies; the dateline lane on torus/ring).
    Routed {
        adaptive: [Option<Port>; 2],
        escape: Port,
        escape_lane: u8,
    },
    /// Output VC allocated; flits compete in switch allocation.
    Active { out_port: Port, out_vc: usize },
}

/// One input virtual channel: pipeline state, the holder tag and the cursor
/// of its flit FIFO. The FIFO is a fixed-depth ring whose storage is the
/// VC's `vc_depth`-long stripe of the owning router's slab, so the ring
/// operations take that stripe as an argument; only the
/// [`Router`](crate::router::Router) writes either.
#[derive(Debug, Clone)]
pub struct InputVc {
    pub(crate) state: VcState,
    /// Application of the packet currently holding this VC. Set when the
    /// head flit is written into the (empty, idle) VC and cleared when the
    /// tail departs — so it stays valid while the VC is occupied even after
    /// every buffered flit has moved downstream.
    pub(crate) holder: Option<AppId>,
    /// Ring index of the front flit (`< depth`).
    head: u32,
    /// Buffered flits (`<= depth`).
    len: u32,
}

impl InputVc {
    pub(crate) fn new() -> Self {
        Self {
            state: VcState::Idle,
            holder: None,
            head: 0,
            len: 0,
        }
    }

    /// Occupied = holds at least one flit or is allocated to an in-flight
    /// packet (its flits may all have moved on while the tail hasn't been
    /// received yet).
    #[inline]
    pub fn occupied(&self) -> bool {
        self.len != 0 || !matches!(self.state, VcState::Idle)
    }

    /// Ring slot of the `i`-th buffered flit (compare-subtract wrap).
    #[inline]
    fn at(&self, depth: usize, i: usize) -> usize {
        let k = self.head as usize + i;
        if k >= depth {
            k - depth
        } else {
            k
        }
    }

    /// Append `flit` at the back of the FIFO stored in `ring`.
    #[inline]
    pub(crate) fn push(&mut self, ring: &mut [Flit], flit: Flit) {
        debug_assert!((self.len as usize) < ring.len(), "input buffer overflow");
        ring[self.at(ring.len(), self.len as usize)] = flit;
        self.len += 1;
    }

    /// Remove and return the front flit of the FIFO stored in `ring`.
    #[inline]
    pub(crate) fn pop(&mut self, ring: &[Flit]) -> Option<Flit> {
        if self.len == 0 {
            return None;
        }
        let flit = ring[self.head as usize];
        self.head = self.at(ring.len(), 1) as u32;
        self.len -= 1;
        Some(flit)
    }

    /// The front flit of the FIFO stored in `ring`, mutably.
    pub(crate) fn front_mut<'a>(&self, ring: &'a mut [Flit]) -> Option<&'a mut Flit> {
        (self.len != 0).then(|| &mut ring[self.head as usize])
    }

    /// Back to the freshly constructed state: idle, unheld, empty ring.
    #[inline]
    pub(crate) fn reset(&mut self) {
        *self = Self::new();
    }

    /// Do the ring cursors index inside a `depth`-long stripe?
    pub(crate) fn cursor_in_bounds(&self, depth: usize) -> bool {
        (self.head as usize) < depth && self.len as usize <= depth
    }
}

/// Read-only view of one input VC together with its flit FIFO — what
/// [`Router::ivc`](crate::router::Router::ivc) hands to the phases, the
/// oracle checkers, policies and tests.
#[derive(Debug, Clone, Copy)]
pub struct VcView<'a> {
    pub(crate) vc: &'a InputVc,
    pub(crate) ring: &'a [Flit],
}

impl<'a> VcView<'a> {
    #[inline]
    pub fn state(&self) -> VcState {
        self.vc.state
    }

    /// Application of the packet currently holding this VC, if any.
    #[inline]
    pub fn holder(&self) -> Option<AppId> {
        self.vc.holder
    }

    /// See [`InputVc::occupied`].
    #[inline]
    pub fn occupied(&self) -> bool {
        self.vc.occupied()
    }

    /// Buffered flits.
    #[inline]
    pub fn len(&self) -> usize {
        self.vc.len as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vc.len == 0
    }

    /// The `i`-th buffered flit, front first.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&'a Flit> {
        (i < self.len()).then(|| &self.ring[self.vc.at(self.ring.len(), i)])
    }

    #[inline]
    pub fn front(&self) -> Option<&'a Flit> {
        self.get(0)
    }

    pub fn back(&self) -> Option<&'a Flit> {
        self.get(self.len().wrapping_sub(1))
    }

    /// Buffered flits, front to back.
    pub fn flits(self) -> impl Iterator<Item = &'a Flit> {
        (0..self.len()).filter_map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketInfo;

    fn flit(seq: u32) -> Flit {
        Flit::nth(
            PacketInfo {
                id: 0,
                src: 0,
                dst: 1,
                app: 3,
                class: 0,
                size: 64,
                birth: 0,
                inject: 0,
                reply: None,
            },
            seq,
        )
    }

    fn view<'a>(vc: &'a InputVc, ring: &'a [Flit]) -> VcView<'a> {
        VcView { vc, ring }
    }

    #[test]
    fn fresh_vc_is_idle_and_unoccupied() {
        let vc = InputVc::new();
        assert_eq!(vc.state, VcState::Idle);
        assert!(!vc.occupied());
        assert!(vc.holder.is_none());
    }

    #[test]
    fn buffered_flit_marks_occupied() {
        let mut vc = InputVc::new();
        let mut ring = [flit(0); 5];
        vc.holder = Some(3);
        vc.push(&mut ring, flit(0));
        assert!(vc.occupied());
        assert_eq!(view(&vc, &ring).holder(), Some(3));
    }

    #[test]
    fn active_empty_vc_still_occupied() {
        let mut vc = InputVc::new();
        vc.state = VcState::Active {
            out_port: 1,
            out_vc: 0,
        };
        assert!(vc.occupied());
    }

    /// Regression: a VC whose buffered flits have all moved downstream while
    /// the packet still owns it (tail not yet through) must keep reporting
    /// its holder — reading the front flit here returned `None` and made
    /// occupancy counting misclassify exactly the VCs that matter for DPA.
    #[test]
    fn holder_survives_buffer_drain() {
        let mut vc = InputVc::new();
        let mut ring = [flit(0); 5];
        vc.holder = Some(3);
        vc.push(&mut ring, flit(0));
        vc.state = VcState::Active {
            out_port: 2,
            out_vc: 1,
        };
        vc.pop(&ring); // flit forwarded; tail still upstream
        assert!(view(&vc, &ring).is_empty());
        assert!(vc.occupied());
        assert_eq!(vc.holder, Some(3), "holder lost after drain");
    }

    /// The ring keeps FIFO order, `front`/`back`/`flits` and its bounds
    /// while the cursor laps the stripe several times at every fill level.
    #[test]
    fn ring_fifo_wraps_around() {
        const DEPTH: usize = 5;
        let mut vc = InputVc::new();
        let mut ring = [flit(63); DEPTH];
        let (mut pushed, mut popped) = (0u32, 0u32);
        for round in 0..4 * DEPTH {
            // Fill to a level that varies per round, then drain a little
            // less, so the head visits every ring position.
            while ((pushed - popped) as usize) < 1 + round % DEPTH {
                vc.push(&mut ring, flit(pushed));
                pushed += 1;
            }
            assert!(vc.cursor_in_bounds(DEPTH));
            let v = view(&vc, &ring);
            assert_eq!(v.len(), (pushed - popped) as usize);
            assert_eq!(v.front().map(|f| f.seq), Some(popped));
            assert_eq!(v.back().map(|f| f.seq), Some(pushed - 1));
            let seqs: Vec<u32> = v.flits().map(|f| f.seq).collect();
            assert_eq!(seqs, (popped..pushed).collect::<Vec<_>>());
            assert!(v.get(v.len()).is_none());
            for _ in 0..(round % 3) + 1 {
                if let Some(f) = vc.pop(&ring) {
                    assert_eq!(f.seq, popped);
                    popped += 1;
                }
            }
        }
        assert!(pushed as usize > 3 * DEPTH, "the cursor lapped the ring");
        while vc.pop(&ring).is_some() {}
        assert!(view(&vc, &ring).front().is_none() && view(&vc, &ring).back().is_none());
        vc.reset();
        assert!(!vc.occupied() && vc.cursor_in_bounds(DEPTH));
    }

    #[test]
    fn tag_accessor() {
        assert_eq!(
            VcClass::Adaptive {
                tag: VcTag::Regional
            }
            .tag(),
            Some(VcTag::Regional)
        );
        assert_eq!(VcClass::Escape { class: 0 }.tag(), None);
    }
}
