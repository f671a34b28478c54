//! Link-level CRC integrity: every buffered flit's payload must match its
//! CRC.
//!
//! The link layer resolves transient corruptions by retransmission *before*
//! a flit is committed to the downstream buffer, so in a correct kernel —
//! with or without an active fault timeline — no buffered flit ever carries
//! a bad CRC. A mismatch means corrupted data escaped the error-control
//! protocol (the `Fault::CorruptFlit` differential mutation, or a real
//! retransmission bug).

use super::{Checker, OracleViolation};
use crate::flit::crc16;
use crate::ids::NUM_PORTS;
use crate::network::Network;

/// End-of-cycle scan over every input-VC buffer verifying
/// `crc16(payload) == crc`.
#[derive(Debug, Default)]
pub struct CrcIntegrity;

impl Checker for CrcIntegrity {
    fn name(&self) -> &'static str {
        "crc-integrity"
    }

    fn end_of_cycle(&mut self, net: &Network, out: &mut Vec<OracleViolation>) {
        for (r, router) in net.routers.iter().enumerate() {
            for port in 0..NUM_PORTS {
                for (vc, ivc) in router.ivcs(port).enumerate() {
                    for f in ivc.flits() {
                        if crc16(f.payload) != f.crc {
                            out.push(OracleViolation {
                                cycle: net.cycle(),
                                checker: self.name(),
                                router: Some(r as crate::ids::NodeId),
                                detail: format!(
                                    "packet {} flit {} at input ({port}, {vc}): \
                                     payload {:#018x} fails CRC ({:#06x} != {:#06x})",
                                    f.info.id,
                                    f.seq,
                                    f.payload,
                                    crc16(f.payload),
                                    f.crc
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
}
