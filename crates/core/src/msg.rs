//! The wire protocol: the five message kinds of Figures 2/3 plus the
//! session-layer acknowledgement, and the client-side output events.
//!
//! Message payloads are generic over the stored [`Payload`] type `P`: the
//! regular register (Figure 2) instantiates `P = V`, the practically atomic
//! register (Figure 3) instantiates `P = SeqVal<V>` — "the data value `v`
//! appearing in Figure 2 is now replaced by the pair `(wsn, v)`".
//!
//! Protocol acknowledgements (`ACK_WRITE`, `ACK_READ`) deliberately carry
//! **no sequence numbers**, reproducing the paper's remark in §3.1: FIFO
//! links plus ss-broadcast ordering align acknowledgements with requests.
//! The alignment itself is anchored on the session-layer `SS_ACK` tags —
//! which belong to the ss-broadcast abstraction, not to the register
//! protocol (see `ClientLink`).

use crate::config::RegId;
use crate::value::Payload;
use sbs_link::SsTag;
use sbs_sim::{Message, OpId, ProcessId};

/// Protocol messages over payload type `P`.
#[derive(Clone, Debug)]
pub enum RegMsg<P> {
    /// Writer → servers: store `val` as the register's latest value
    /// (Fig. 2 line 01 / Fig. 3 line 01M).
    Write {
        /// Which logical register.
        reg: RegId,
        /// Session-layer broadcast tag.
        tag: SsTag,
        /// The (possibly stamped) value being written.
        val: P,
    },
    /// Writer → servers: refresh the helping value for the given readers
    /// (Fig. 2/3 line 04).
    NewHelpVal {
        /// Which logical register.
        reg: RegId,
        /// Session-layer broadcast tag.
        tag: SsTag,
        /// The helping value to install.
        val: P,
        /// The readers whose helping slots must be refreshed.
        readers: Vec<ProcessId>,
    },
    /// Reader → servers: an inquiry round (Fig. 2/3 line 09 / N2).
    Read {
        /// Which logical register.
        reg: RegId,
        /// Session-layer broadcast tag.
        tag: SsTag,
        /// True on the first round of a read operation — asks the server
        /// to reset this reader's helping slot (line 22).
        new_read: bool,
    },
    /// Server → client: session-layer delivery acknowledgement. Carries the
    /// tag so the client can both complete its broadcast and anchor
    /// subsequent protocol acknowledgements from this server.
    SsAck {
        /// The tag being acknowledged.
        tag: SsTag,
    },
    /// Server → writer: response to `Write` (line 20). Carries the server's
    /// helping state per reader so the writer can evaluate line 03.
    AckWrite {
        /// Which logical register.
        reg: RegId,
        /// This server's helping value for each reader it knows about.
        helping: Vec<(ProcessId, Option<P>)>,
    },
    /// Server → reader: response to `Read` (line 23).
    AckRead {
        /// Which logical register.
        reg: RegId,
        /// The server's current `last_val`.
        last: P,
        /// The server's helping value for this reader (`None` = ⊥).
        helping: Option<P>,
    },
}

impl<P: Payload> RegMsg<P> {
    /// The logical register this message addresses; `None` for the
    /// session-layer `SsAck`, which belongs to no register.
    pub fn reg(&self) -> Option<RegId> {
        match self {
            RegMsg::Write { reg, .. }
            | RegMsg::NewHelpVal { reg, .. }
            | RegMsg::Read { reg, .. }
            | RegMsg::AckWrite { reg, .. }
            | RegMsg::AckRead { reg, .. } => Some(*reg),
            RegMsg::SsAck { .. } => None,
        }
    }

    /// Estimated serialized size: a fixed per-message header (kind tag,
    /// register id, session tag) plus the carried payloads' wire sizes.
    pub fn wire_size(&self) -> u64 {
        const HEADER: u64 = 16;
        match self {
            RegMsg::Write { val, .. } => HEADER + val.wire_size(),
            RegMsg::NewHelpVal { val, readers, .. } => {
                HEADER + val.wire_size() + 4 * readers.len() as u64
            }
            RegMsg::Read { .. } => HEADER + 1,
            RegMsg::SsAck { .. } => HEADER,
            RegMsg::AckWrite { helping, .. } => {
                HEADER
                    + helping
                        .iter()
                        .map(|(_, h)| 5 + h.as_ref().map_or(0, Payload::wire_size))
                        .sum::<u64>()
            }
            RegMsg::AckRead { last, helping, .. } => {
                HEADER + last.wire_size() + 1 + helping.as_ref().map_or(0, Payload::wire_size)
            }
        }
    }
}

impl<P: Payload> Message for RegMsg<P> {
    fn label(&self) -> &'static str {
        match self {
            RegMsg::Write { .. } => "WRITE",
            RegMsg::NewHelpVal { .. } => "NEW_HELP_VAL",
            RegMsg::Read { .. } => "READ",
            RegMsg::SsAck { .. } => "SS_ACK",
            RegMsg::AckWrite { .. } => "ACK_WRITE",
            RegMsg::AckRead { .. } => "ACK_READ",
        }
    }

    fn wire_bytes(&self) -> u64 {
        self.wire_size()
    }
}

/// Client-visible operation completions. `T` is the completed read's value
/// type: the wire payload `P` for SWSR/SWMR stacks (the harness projects
/// the application value out), the application value `V` for MWMR.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientOut<T> {
    /// A `write` finished (Fig. 2 line 06).
    WriteDone {
        /// The operation, as assigned at invocation.
        op: OpId,
    },
    /// A `read` finished (Fig. 2 lines 13/15).
    ReadDone {
        /// The operation, as assigned at invocation.
        op: OpId,
        /// The value returned.
        value: T,
    },
}

impl<T> ClientOut<T> {
    /// The completed operation's id.
    pub fn op(&self) -> OpId {
        match self {
            ClientOut::WriteDone { op } | ClientOut::ReadDone { op, .. } => *op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_cover_all_kinds() {
        let w: RegMsg<u64> = RegMsg::Write {
            reg: RegId(0),
            tag: 1,
            val: 5,
        };
        assert_eq!(w.label(), "WRITE");
        let h: RegMsg<u64> = RegMsg::NewHelpVal {
            reg: RegId(0),
            tag: 2,
            val: 5,
            readers: vec![],
        };
        assert_eq!(h.label(), "NEW_HELP_VAL");
        let r: RegMsg<u64> = RegMsg::Read {
            reg: RegId(0),
            tag: 3,
            new_read: true,
        };
        assert_eq!(r.label(), "READ");
        assert_eq!(RegMsg::<u64>::SsAck { tag: 4 }.label(), "SS_ACK");
        let aw: RegMsg<u64> = RegMsg::AckWrite {
            reg: RegId(0),
            helping: vec![],
        };
        assert_eq!(aw.label(), "ACK_WRITE");
        let ar: RegMsg<u64> = RegMsg::AckRead {
            reg: RegId(0),
            last: 5,
            helping: None,
        };
        assert_eq!(ar.label(), "ACK_READ");
    }

    #[test]
    fn client_out_exposes_op() {
        assert_eq!(ClientOut::<u64>::WriteDone { op: OpId(3) }.op(), OpId(3));
        assert_eq!(
            ClientOut::ReadDone {
                op: OpId(4),
                value: 9u64
            }
            .op(),
            OpId(4)
        );
    }
}
