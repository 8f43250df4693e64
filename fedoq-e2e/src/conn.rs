//! One client connection to `fedoq-serve`, speaking the frame protocol
//! directly so the benchmark can time the codec on the real reply bytes
//! and split a connection into a sender and a receiver for open loops.

use crate::trace::Tracer;
use fedoq_wire::codec::{Reader, MAX_FRAME};
use fedoq_wire::frame::{decode_payload, encode_frame, MAGIC, VERSION};
use fedoq_wire::{ClientAnswer, Frame, Role};
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The serve's verdict on one operation.
pub type Reply = Result<ClientAnswer, String>;

/// Reads frames off one connection.
pub struct FrameReader {
    input: BufReader<TcpStream>,
    /// Set to time `decode_payload` (span `wire.decode`) per frame.
    pub tracer: Option<Tracer>,
    /// Request id the next decode span is filed under.
    pub request: u64,
}

impl FrameReader {
    /// Reads one frame and its payload size.
    ///
    /// # Errors
    ///
    /// I/O failure, a clean close (`UnexpectedEof`) or a malformed frame.
    pub fn recv(&mut self) -> io::Result<(Frame, usize)> {
        let mut header = [0u8; 12];
        self.input.read_exact(&mut header)?;
        let mut r = Reader::new(&header);
        let (magic, version, len) = match (r.u32(), r.u32(), r.u32()) {
            (Ok(m), Ok(v), Ok(l)) => (m, v, l as usize),
            _ => return Err(invalid("truncated frame header")),
        };
        if magic != MAGIC || version != VERSION || len > MAX_FRAME {
            return Err(invalid("bad frame header"));
        }
        let mut payload = vec![0u8; len];
        self.input.read_exact(&mut payload)?;
        let frame = match self.tracer.as_mut() {
            Some(t) => t.leaf("wire.decode", self.request, || decode_payload(&payload)),
            None => decode_payload(&payload),
        }
        .map_err(|e| invalid(&e.to_string()))?;
        Ok((frame, len))
    }
}

/// Writes frames onto one connection.
pub struct FrameWriter {
    output: TcpStream,
}

impl FrameWriter {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.output.write_all(&encode_frame(frame))
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// A synchronous connection: one operation in flight at a time.
pub struct Conn {
    /// Outbound half.
    pub writer: FrameWriter,
    /// Inbound half.
    pub reader: FrameReader,
    next_id: u64,
}

impl Conn {
    /// Dials `addr` and introduces itself as a client.
    ///
    /// # Errors
    ///
    /// Connection or handshake failure.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let parsed = addr
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "bad address"))?;
        let stream = TcpStream::connect_timeout(&parsed, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            writer: FrameWriter {
                output: stream.try_clone()?,
            },
            reader: FrameReader {
                input: BufReader::new(stream),
                tracer: None,
                request: 0,
            },
            next_id: 1,
        };
        conn.writer.send(&Frame::Hello {
            role: Role::Client,
            site: None,
        })?;
        Ok(conn)
    }

    /// A fresh correlation id.
    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Reads until the answer to `id` (skipping the delta batches that
    /// precede a mutation's ack); returns it with its payload size.
    fn await_answer(&mut self, id: u64) -> io::Result<(Reply, usize)> {
        loop {
            if let (Frame::Answer { id: got, reply }, len) = self.reader.recv()? {
                if got == id {
                    return Ok((reply, len));
                }
            }
        }
    }

    /// Runs one query; returns the verdict and the answer's payload size.
    ///
    /// # Errors
    ///
    /// Transport failure.
    pub fn query(&mut self, sql: &str, strategy: &str) -> io::Result<(Reply, usize)> {
        let id = self.next_id();
        self.writer.send(&Frame::Query {
            id,
            sql: sql.to_string(),
            strategy: strategy.to_string(),
        })?;
        self.await_answer(id)
    }

    /// Applies one mutation spec at site `db`; the ack is the barrier
    /// after every delta the mutation caused.
    ///
    /// # Errors
    ///
    /// Transport failure.
    pub fn mutate(&mut self, db: u16, spec: &str) -> io::Result<Reply> {
        let id = self.next_id();
        self.writer.send(&Frame::Mutate {
            id,
            db,
            spec: spec.to_string(),
        })?;
        Ok(self.await_answer(id)?.0)
    }

    /// Registers a standing query and waits for its initial snapshot.
    /// Returns the watch id and the snapshot rows (or the refusal).
    ///
    /// # Errors
    ///
    /// Transport failure.
    pub fn subscribe(
        &mut self,
        sql: &str,
        strategy: &str,
    ) -> io::Result<(u64, Result<Vec<String>, String>)> {
        let id = self.next_id();
        self.writer.send(&Frame::Subscribe {
            id,
            sql: sql.to_string(),
            strategy: strategy.to_string(),
            priority: 0,
        })?;
        loop {
            if let (
                Frame::Delta {
                    id: got,
                    seq: 0,
                    reply,
                },
                _,
            ) = self.reader.recv()?
            {
                if got == id {
                    return Ok((id, reply));
                }
            }
        }
    }

    /// Drops a standing query (the serve sends no ack).
    ///
    /// # Errors
    ///
    /// Transport failure.
    pub fn unsubscribe(&mut self, watch: u64) -> io::Result<()> {
        self.writer.send(&Frame::Unsubscribe { id: watch })
    }
}
