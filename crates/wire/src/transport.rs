//! [`TcpTransport`]: the forwarding [`Transport`] bridging `fedoq-net`
//! routers across OS processes.
//!
//! Each [`TcpTransport`] belongs to one query session on one endpoint:
//! it knows which [`Site`] lives in this process, the session's query
//! fingerprint (the wire tag correlating envelopes to sessions), and
//! the query's SQL (attached to outbound *requests* so a receiving site
//! can lazily bind a session for a fingerprint it has never seen).
//!
//! Envelopes addressed to the local site are declined (`forward` returns
//! `false`), so the router delivers them in-process with zero delay — a
//! site's lookup into its own store. Everything else is framed onto the
//! wire through the shared [`Hub`]; a failed send is a lost datagram,
//! surfaced only as the sender's RPC timeout.

use crate::hub::Hub;
use fedoq_net::msg::{Envelope, Payload};
use fedoq_net::Transport;
use fedoq_sim::Site;

/// Which site actor runs inside this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    /// The global integrator (a `fedoq-serve` worker).
    Global,
    /// One component site daemon.
    Db(u16),
}

/// The real-wire transport: local envelopes stay in-process, remote
/// ones are framed over TCP.
pub struct TcpTransport {
    hub: Hub,
    local: Locality,
    tag: u64,
    sql: String,
    delivered: u64,
}

impl TcpTransport {
    /// A transport for one query session.
    ///
    /// `tag` is the session's query fingerprint; `sql` the query text
    /// attached to outbound requests.
    pub fn new(hub: Hub, local: Locality, tag: u64, sql: String) -> TcpTransport {
        TcpTransport {
            hub,
            local,
            tag,
            sql,
            delivered: 0,
        }
    }

    fn is_local(&self, site: Site) -> bool {
        match (self.local, site) {
            (Locality::Global, Site::Global) => true,
            (Locality::Db(mine), Site::Db(db)) => db.index() == mine as usize,
            _ => false,
        }
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn dispatch(&mut self, _env: &Envelope, _now_us: f64) -> Option<f64> {
        // Only local envelopes reach dispatch (forward declined them):
        // deliver instantly, like LocalTransport.
        self.delivered += 1;
        Some(0.0)
    }

    fn forward(&mut self, env: &Envelope, _now_us: f64) -> bool {
        if self.is_local(env.to) {
            return false;
        }
        // SQL rides only on requests: responses correlate by rpc id.
        let sql = match env.payload {
            Payload::Request(_) => self.sql.as_str(),
            Payload::Response(_) => "",
        };
        self.hub.route_envelope(self.tag, sql, env);
        true
    }

    fn stats(&self) -> (u64, u64) {
        let (forwarded, lost) = self.hub.counters();
        (self.delivered + forwarded, lost)
    }
}
