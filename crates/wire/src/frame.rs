//! Length-prefixed frames: the unit of transmission on a connection.
//!
//! Every frame is `[magic u32][version u32][len u32][payload len bytes]`,
//! all little-endian. The payload starts with a one-byte frame tag:
//!
//! * [`Frame::Hello`] — first frame on every connection: who is dialing
//!   (a serve frontend, a component site, or an interactive client);
//! * [`Frame::Peers`] — serve → site: the federation's site address
//!   table, so sites can dial each other for assistant lookups;
//! * [`Frame::Envelope`] — one `fedoq-net` protocol message, tagged with
//!   its query fingerprint (requests also carry the query's SQL so a
//!   site can lazily bind sessions it has never seen);
//! * [`Frame::Query`] / [`Frame::Answer`] — the client protocol spoken
//!   by `fedoq-serve`: submit one SQL query under a strategy name, get
//!   back the canonically rendered answer or an error string;
//! * [`Frame::Subscribe`] / [`Frame::Delta`] / [`Frame::Unsubscribe`] /
//!   [`Frame::Mutate`] — the standing-query protocol: register a live
//!   subscription, receive its initial snapshot and every subsequent
//!   reclassification delta as canonically rendered strings, apply
//!   mutations that drive those deltas, and tear the watch down.
//!
//! A frame that fails to decode poisons only its connection (the reader
//! drops it); it can never panic the process.

use crate::codec::{Reader, WireError, Writer, MAX_FRAME};
use crate::proto::{dec_envelope, enc_envelope};
use fedoq_net::msg::Envelope;
use std::io::{self, Read, Write};

/// Frame magic: `FQW1` little-endian.
pub const MAGIC: u32 = 0x3157_5146;
/// Protocol version; bumped on any layout change.
///
/// v2: added `Request::HybridCertify` (per-site BL/PL schedules).
/// v3: standing-query subscription frames (Subscribe/Delta/Unsubscribe/
/// Mutate).
/// v4: removed the in-process client→global Certify/BatchCertify/
/// HybridCertify messages (never sent between processes).
pub const VERSION: u32 = 4;

/// What kind of endpoint dialed a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A `fedoq-serve` query frontend.
    Serve,
    /// A component-site daemon (`fedoq-site`).
    Site,
    /// An interactive client (shell, bench driver).
    Client,
}

/// The canonically rendered outcome of one client query.
///
/// Rows travel as strings (the `ResultRow`/`MaybeRow` display forms) so
/// a client can diff answers across transports byte for byte without
/// linking the object model.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientAnswer {
    /// The strategy that actually ran (`CA`/`BL`/`PL`/`BL-S`/`PL-S`; for
    /// `adaptive` submissions, whichever the planner picked).
    pub executed: String,
    /// Certain rows (`C {row}`) then maybe rows (`M {row} maybe[..]`),
    /// each sorted by GOid.
    pub rows: Vec<String>,
    /// Sites that stayed unreachable past the retry budget.
    pub degraded_sites: Vec<u16>,
    /// RPC retries the execution performed.
    pub retries: u64,
    /// Envelopes the answering serve worker's hub has put on the wire
    /// over its lifetime (not per query).
    pub forwarded: u64,
    /// Envelopes the answering serve worker's hub has failed to put on
    /// the wire over its lifetime (not per query).
    pub lost: u64,
    /// Server-side wall-clock execution time, µs.
    pub server_us: f64,
}

impl ClientAnswer {
    /// `true` iff any maybe row is degraded or a site was unreachable.
    pub fn is_degraded(&self) -> bool {
        !self.degraded_sites.is_empty() || self.rows.iter().any(|r| r.ends_with("(degraded)"))
    }
}

/// One frame on a wire connection.
///
/// No `PartialEq`: [`Envelope`] payloads have none. Compare frames by
/// their canonical encoding ([`encode_payload`]) instead.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Connection opener: the dialer's role, and its site id if a site.
    Hello {
        /// Who is dialing.
        role: Role,
        /// The dialer's component site id (sites only).
        site: Option<u16>,
    },
    /// The federation's site address table (serve → site).
    Peers {
        /// `(site id, "host:port")` pairs.
        sites: Vec<(u16, String)>,
    },
    /// One `fedoq-net` protocol message.
    Envelope {
        /// The query fingerprint this message belongs to.
        tag: u64,
        /// The query's SQL (requests only; empty on responses). Lets a
        /// site bind a session for a fingerprint it has never seen.
        sql: String,
        /// The routed message itself.
        env: Envelope,
    },
    /// Client → serve: run one query.
    Query {
        /// Client-chosen correlation id, echoed on the answer.
        id: u64,
        /// The query's SQL.
        sql: String,
        /// Strategy name (`ca`/`bl`/`pl`/`bl-s`/`pl-s`/`adaptive`).
        strategy: String,
    },
    /// Serve → client: the outcome of one [`Frame::Query`].
    Answer {
        /// The query's correlation id.
        id: u64,
        /// The rendered answer, or the error that stopped execution.
        reply: Result<ClientAnswer, String>,
    },
    /// Client → serve: register a standing query.
    Subscribe {
        /// Client-chosen watch id, echoed on every delta.
        id: u64,
        /// The standing query's SQL.
        sql: String,
        /// Strategy name (`ca`/`bl`/`pl`/`hy`).
        strategy: String,
        /// Admission priority on the serve's ladder (higher wins).
        priority: u8,
    },
    /// Serve → client: one batch of standing-query output.
    ///
    /// `seq` 0 is the initial snapshot (canonical `C ..`/`M .. ? ..`
    /// row strings); `seq >= 1` carries reclassification deltas in
    /// their display form. Rows travel as strings for the same reason
    /// [`ClientAnswer`] rows do: byte-for-byte diffing across
    /// transports without linking the object model.
    Delta {
        /// The watch id this batch belongs to.
        id: u64,
        /// Snapshot (0) or delta-batch ordinal (monotonic per watch).
        seq: u64,
        /// Rendered rows/deltas, or the error that killed the watch.
        reply: Result<Vec<String>, String>,
    },
    /// Client → serve: tear down a standing query.
    Unsubscribe {
        /// The watch id to drop.
        id: u64,
    },
    /// Client → serve: apply one mutation to a component site's store.
    ///
    /// Acknowledged with a [`Frame::Answer`] (executed = `mutate`);
    /// any deltas it triggers follow as [`Frame::Delta`] frames.
    Mutate {
        /// Correlation id, echoed on the acknowledging answer.
        id: u64,
        /// The component site to mutate.
        db: u16,
        /// The mutation spec (`insert Class a=v,..` / `update ..`).
        spec: String,
    },
}

pub(crate) fn enc_role(w: &mut Writer, role: Role) {
    w.u8(match role {
        Role::Serve => 0,
        Role::Site => 1,
        Role::Client => 2,
    });
}

pub(crate) fn dec_role(r: &mut Reader) -> Result<Role, WireError> {
    match r.u8()? {
        0 => Ok(Role::Serve),
        1 => Ok(Role::Site),
        2 => Ok(Role::Client),
        _ => Err(WireError::Malformed("role tag")),
    }
}

fn enc_client_answer(w: &mut Writer, a: &ClientAnswer) {
    w.str(&a.executed);
    w.seq(a.rows.len());
    for row in &a.rows {
        w.str(row);
    }
    w.seq(a.degraded_sites.len());
    for db in &a.degraded_sites {
        w.u16(*db);
    }
    w.u64(a.retries);
    w.u64(a.forwarded);
    w.u64(a.lost);
    w.f64(a.server_us);
}

fn dec_client_answer(r: &mut Reader) -> Result<ClientAnswer, WireError> {
    let executed = r.str()?;
    let n = r.seq()?;
    let mut rows = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        rows.push(r.str()?);
    }
    let n = r.seq()?;
    let mut degraded_sites = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        degraded_sites.push(r.u16()?);
    }
    Ok(ClientAnswer {
        executed,
        rows,
        degraded_sites,
        retries: r.u64()?,
        forwarded: r.u64()?,
        lost: r.u64()?,
        server_us: r.f64()?,
    })
}

/// Encodes one frame payload (without the length-prefix header).
pub fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut w = Writer::new();
    match frame {
        Frame::Hello { role, site } => {
            w.u8(0);
            enc_role(&mut w, *role);
            match site {
                None => w.u8(0),
                Some(s) => {
                    w.u8(1);
                    w.u16(*s);
                }
            }
        }
        Frame::Peers { sites } => {
            w.u8(1);
            w.seq(sites.len());
            for (db, addr) in sites {
                w.u16(*db);
                w.str(addr);
            }
        }
        Frame::Envelope { tag, sql, env } => {
            w.u8(2);
            w.u64(*tag);
            w.str(sql);
            enc_envelope(&mut w, env);
        }
        Frame::Query { id, sql, strategy } => {
            w.u8(3);
            w.u64(*id);
            w.str(sql);
            w.str(strategy);
        }
        Frame::Answer { id, reply } => {
            w.u8(4);
            w.u64(*id);
            match reply {
                Ok(answer) => {
                    w.u8(0);
                    enc_client_answer(&mut w, answer);
                }
                Err(msg) => {
                    w.u8(1);
                    w.str(msg);
                }
            }
        }
        Frame::Subscribe {
            id,
            sql,
            strategy,
            priority,
        } => {
            w.u8(5);
            w.u64(*id);
            w.str(sql);
            w.str(strategy);
            w.u8(*priority);
        }
        Frame::Delta { id, seq, reply } => {
            w.u8(6);
            w.u64(*id);
            w.u64(*seq);
            match reply {
                Ok(rows) => {
                    w.u8(0);
                    w.seq(rows.len());
                    for row in rows {
                        w.str(row);
                    }
                }
                Err(msg) => {
                    w.u8(1);
                    w.str(msg);
                }
            }
        }
        Frame::Unsubscribe { id } => {
            w.u8(7);
            w.u64(*id);
        }
        Frame::Mutate { id, db, spec } => {
            w.u8(8);
            w.u64(*id);
            w.u16(*db);
            w.str(spec);
        }
    }
    w.finish()
}

/// Decodes one frame payload; the buffer must hold exactly one.
pub fn decode_payload(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(bytes);
    let frame = match r.u8()? {
        0 => {
            let role = dec_role(&mut r)?;
            let site = match r.u8()? {
                0 => None,
                1 => Some(r.u16()?),
                _ => return Err(WireError::Malformed("option tag")),
            };
            Frame::Hello { role, site }
        }
        1 => {
            let n = r.seq()?;
            let mut sites = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let db = r.u16()?;
                let addr = r.str()?;
                sites.push((db, addr));
            }
            Frame::Peers { sites }
        }
        2 => {
            let tag = r.u64()?;
            let sql = r.str()?;
            let env = dec_envelope(&mut r)?;
            Frame::Envelope { tag, sql, env }
        }
        3 => {
            let id = r.u64()?;
            let sql = r.str()?;
            let strategy = r.str()?;
            Frame::Query { id, sql, strategy }
        }
        4 => {
            let id = r.u64()?;
            let reply = match r.u8()? {
                0 => Ok(dec_client_answer(&mut r)?),
                1 => Err(r.str()?),
                _ => return Err(WireError::Malformed("result tag")),
            };
            Frame::Answer { id, reply }
        }
        5 => {
            let id = r.u64()?;
            let sql = r.str()?;
            let strategy = r.str()?;
            let priority = r.u8()?;
            Frame::Subscribe {
                id,
                sql,
                strategy,
                priority,
            }
        }
        6 => {
            let id = r.u64()?;
            let seq = r.u64()?;
            let reply = match r.u8()? {
                0 => {
                    let n = r.seq()?;
                    let mut rows = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        rows.push(r.str()?);
                    }
                    Ok(rows)
                }
                1 => Err(r.str()?),
                _ => return Err(WireError::Malformed("result tag")),
            };
            Frame::Delta { id, seq, reply }
        }
        7 => Frame::Unsubscribe { id: r.u64()? },
        8 => {
            let id = r.u64()?;
            let db = r.u16()?;
            let spec = r.str()?;
            Frame::Mutate { id, db, spec }
        }
        _ => return Err(WireError::Malformed("frame tag")),
    };
    r.expect_end()?;
    Ok(frame)
}

/// Encodes one frame with its `[magic][version][len]` header.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    let mut w = Writer::new();
    w.u32(MAGIC);
    w.u32(VERSION);
    w.u32(payload.len() as u32);
    let mut bytes = w.finish();
    bytes.extend_from_slice(&payload);
    bytes
}

/// Writes one frame to `out` (header + payload, one `write_all`).
pub fn write_frame(out: &mut impl Write, frame: &Frame) -> io::Result<()> {
    out.write_all(&encode_frame(frame))
}

fn wire_io_error(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Reads one frame from `input`.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary; any mid-frame
/// EOF, bad header, or undecodable payload is an [`io::Error`] (kind
/// `InvalidData` for protocol violations).
pub fn read_frame(input: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut header = [0u8; 12];
    let mut filled = 0;
    while filled < header.len() {
        match input.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let mut r = Reader::new(&header);
    let (magic, version, len) = match (r.u32(), r.u32(), r.u32()) {
        (Ok(m), Ok(v), Ok(l)) => (m, v, l as usize),
        _ => return Err(wire_io_error(WireError::Truncated)),
    };
    if magic != MAGIC {
        return Err(wire_io_error(WireError::BadMagic));
    }
    if version != VERSION {
        return Err(wire_io_error(WireError::BadVersion(version)));
    }
    if len > MAX_FRAME {
        return Err(wire_io_error(WireError::TooLarge));
    }
    let mut payload = vec![0u8; len];
    input.read_exact(&mut payload)?;
    decode_payload(&payload).map(Some).map_err(wire_io_error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_byte_pipe() {
        let frames = vec![
            Frame::Hello {
                role: Role::Site,
                site: Some(2),
            },
            Frame::Peers {
                sites: vec![(0, "127.0.0.1:7000".into()), (1, "127.0.0.1:7001".into())],
            },
            Frame::Query {
                id: 9,
                sql: "SELECT X.name FROM Student X".into(),
                strategy: "adaptive".into(),
            },
            Frame::Answer {
                id: 9,
                reply: Err("no such strategy".into()),
            },
            Frame::Subscribe {
                id: 1,
                sql: "SELECT X.name FROM Teacher X WHERE X.speciality = 'database'".into(),
                strategy: "hy".into(),
                priority: 7,
            },
            Frame::Delta {
                id: 1,
                seq: 0,
                reply: Ok(vec!["C (Hedy)".into(), "M (Tony) ? d1/3.a1:null".into()]),
            },
            Frame::Delta {
                id: 1,
                seq: 3,
                reply: Err("watch evaluation failed".into()),
            },
            Frame::Mutate {
                id: 10,
                db: 1,
                spec: "insert Teacher name='Haley',speciality='network'".into(),
            },
            Frame::Unsubscribe { id: 1 },
        ];
        let mut pipe = Vec::new();
        for f in &frames {
            write_frame(&mut pipe, f).unwrap();
        }
        let mut cursor = io::Cursor::new(pipe);
        for f in &frames {
            let got = read_frame(&mut cursor).unwrap().expect("frame");
            assert_eq!(encode_payload(&got), encode_payload(f));
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn bad_magic_and_truncation_are_io_errors() {
        let mut bytes = encode_frame(&Frame::Hello {
            role: Role::Client,
            site: None,
        });
        bytes[0] ^= 0xFF;
        let err = read_frame(&mut io::Cursor::new(&bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let good = encode_frame(&Frame::Peers { sites: vec![] });
        let err = read_frame(&mut io::Cursor::new(&good[..good.len() - 1])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
