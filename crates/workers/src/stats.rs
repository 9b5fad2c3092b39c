//! Transport selection and measured message statistics.

/// Which execution substrate runs the sharded exploration phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportKind {
    /// The in-process fan-out (`usnae_graph::par`) — the historical path;
    /// shard-to-shard traffic is routed reads, nothing is measured.
    #[default]
    Inproc,
    /// One OS thread per shard with bounded mpsc channels.
    Channel,
    /// One TCP connection per shard, framing the same binary protocol
    /// over a socket: loopback-spawned `usnae-worker --listen` children
    /// by default, or pre-started remote workers via `USNAE_WORKERS_ADDR`.
    Socket,
}

impl TransportKind {
    /// All kinds, stable order (CLI help and test matrices iterate this).
    pub fn all() -> [TransportKind; 3] {
        [
            TransportKind::Inproc,
            TransportKind::Channel,
            TransportKind::Socket,
        ]
    }

    /// Stable name (`"inproc"` / `"channel"` / `"socket"`).
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Inproc => "inproc",
            TransportKind::Channel => "channel",
            TransportKind::Socket => "socket",
        }
    }

    /// Parses a [`name`](Self::name) back into the kind.
    pub fn parse(s: &str) -> Option<TransportKind> {
        TransportKind::all().into_iter().find(|k| k.name() == s)
    }

    /// Single-byte code for the snapshot codec. Code 2 belonged to a
    /// removed pipe transport and stays unassigned, so stored snapshots
    /// keep decoding unchanged.
    pub fn code(&self) -> u8 {
        match self {
            TransportKind::Inproc => 0,
            TransportKind::Channel => 1,
            TransportKind::Socket => 3,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(b: u8) -> Option<TransportKind> {
        TransportKind::all().into_iter().find(|k| k.code() == b)
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Measured frontier traffic between one ordered shard pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairStats {
    /// Source shard.
    pub src: usize,
    /// Destination shard.
    pub dst: usize,
    /// Frontier candidates routed `src → dst`.
    pub messages: u64,
    /// Wire bytes of those candidates.
    pub bytes: u64,
}

/// Measured message complexity of one worker-pool build: what the CONGEST
/// reproduction previously only *simulated*.
///
/// `messages`/`bytes` totals also include the rank-protocol traffic
/// (per-level key submissions and rank replies, which flow through the
/// driver rather than between worker pairs), so the totals are `>=` the
/// sum over `pairs`. Counts are computed by the driver from message counts
/// times fixed wire sizes — identical for every transport.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MessageStats {
    /// Exchange barriers driven (start / frontier / rank rounds).
    pub rounds: u64,
    /// Total messages (frontier candidates + rank keys + rank replies).
    pub messages: u64,
    /// Total wire bytes of those messages.
    pub bytes: u64,
    /// Worker-to-worker frontier traffic per ordered shard pair,
    /// ascending `(src, dst)`; pairs with no traffic are omitted.
    pub pairs: Vec<PairStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_and_codes_round_trip() {
        for k in TransportKind::all() {
            assert_eq!(TransportKind::parse(k.name()), Some(k));
            assert_eq!(TransportKind::from_code(k.code()), Some(k));
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!(TransportKind::parse("carrier-pigeon"), None);
        assert_eq!(TransportKind::from_code(9), None);
        // Stored snapshots carry these bytes: the codes never move, and
        // the retired pipe transport's code 2 stays unassigned.
        let codes = TransportKind::all().map(|k| k.code());
        assert_eq!(codes, [0, 1, 3]);
        assert_eq!(TransportKind::from_code(2), None);
        assert_eq!(TransportKind::parse("process"), None);
        assert_eq!(TransportKind::default(), TransportKind::Inproc);
    }
}
