//! The per-host actor: server and client behaviour for every strategy.

use curtain_rlnc::{CodedPacket, Encoder, PacketBuf, Recoder};
use curtain_simnet::{Actor, Context, HostId, LinkId};
use rand::RngExt as _;

use crate::attacks::AttackMode;

/// Wire messages exchanged during a session.
#[derive(Debug, Clone)]
pub(crate) enum Msg {
    /// A network-coded packet (RLNC strategy and its attackers).
    Coded(CodedPacket),
    /// An uncoded content chunk (routing strategy).
    Chunk {
        index: u32,
        data: PacketBuf,
    },
    /// One Reed–Solomon share of one stripe (source-erasure strategy).
    Share {
        stripe: u32,
        column: u16,
        data: PacketBuf,
    },
}

impl Msg {
    /// Approximate on-the-wire size in bytes (payload + minimal headers),
    /// used as the simulator's message sizer for byte-level accounting.
    pub(crate) fn wire_size(&self) -> usize {
        match self {
            // generation id + coefficient vector + payload
            Msg::Coded(p) => 4 + p.coefficients().len() + p.payload().len(),
            // chunk index + payload
            Msg::Chunk { data, .. } => 4 + data.len(),
            // stripe index + column + payload
            Msg::Share { data, .. } => 4 + 2 + data.len(),
        }
    }
}

/// An outgoing stream: the link plus (for curtains) its thread/column.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutLink {
    pub link: LinkId,
    pub thread: Option<u16>,
}

/// Server-side content state.
#[derive(Debug)]
pub(crate) enum ServerRole {
    Rlnc {
        encoder: Encoder,
    },
    Routing {
        chunks: Vec<PacketBuf>,
    },
    Erasure {
        /// `shares[stripe][column]`.
        shares: Vec<Vec<PacketBuf>>,
    },
}

/// Client-side reception state.
#[derive(Debug)]
pub(crate) enum ClientRole {
    Rlnc {
        recoder: Recoder,
        /// Entropy destroyer's pinned packet.
        pinned: Option<CodedPacket>,
    },
    Routing {
        chunks: Vec<Option<PacketBuf>>,
        have: usize,
    },
    Erasure {
        /// `shares[stripe][column]` for columns this node subscribes to.
        shares: Vec<Vec<Option<PacketBuf>>>,
        /// Shares needed per stripe (the RS data-share count).
        needed: usize,
        /// Completed stripes so far.
        stripes_done: usize,
    },
}

#[derive(Debug)]
pub(crate) enum Role {
    Server(ServerRole),
    Client(ClientRole),
}

/// One simulated host.
#[derive(Debug)]
pub(crate) struct Peer {
    pub alive: bool,
    pub attack: AttackMode,
    pub outs: Vec<OutLink>,
    pub role: Role,
    pub completed_at: Option<u64>,
    /// Per-out-link send cursors (chunk index / stripe rotation).
    pub cursors: Vec<u64>,
    /// Content shape (for jammers fabricating packets).
    pub gen_size: usize,
    pub packet_len: usize,
    /// Packets this host accepted from the network (fairness accounting).
    pub received_packets: u64,
    /// Packets this host offered to its out-links.
    pub sent_packets: u64,
}

impl Peer {
    /// Fraction of the content this client currently holds.
    pub(crate) fn progress(&self) -> f64 {
        match &self.role {
            Role::Server(_) => 1.0,
            Role::Client(ClientRole::Rlnc { recoder, .. }) => {
                recoder.rank() as f64 / self.gen_size as f64
            }
            Role::Client(ClientRole::Routing { have, .. }) => {
                *have as f64 / self.gen_size as f64
            }
            Role::Client(ClientRole::Erasure { shares, needed, .. }) => {
                let have: usize = shares
                    .iter()
                    .map(|s| s.iter().filter(|x| x.is_some()).count().min(*needed))
                    .sum();
                have as f64 / self.gen_size as f64
            }
        }
    }

    fn is_content_complete(&self) -> bool {
        match &self.role {
            Role::Server(_) => true,
            Role::Client(ClientRole::Rlnc { recoder, .. }) => recoder.is_complete(),
            Role::Client(ClientRole::Routing { have, .. }) => *have == self.gen_size,
            Role::Client(ClientRole::Erasure { shares, stripes_done, .. }) => {
                *stripes_done == shares.len()
            }
        }
    }

    fn note_completion(&mut self, now: u64) {
        if self.completed_at.is_none() && self.is_content_complete() {
            self.completed_at = Some(now);
        }
    }

    fn send_as_server(&mut self, ctx: &mut Context<'_, Msg>) {
        for i in 0..self.outs.len() {
            let out = self.outs[i];
            let cursor = self.cursors[i];
            self.cursors[i] += 1;
            match &mut self.role {
                Role::Server(ServerRole::Rlnc { encoder }) => {
                    let p = encoder.encode(ctx.rng());
                    self.sent_packets += 1;
                    ctx.send(out.link, Msg::Coded(p));
                }
                Role::Server(ServerRole::Routing { chunks }) => {
                    // Stagger links so they cover different chunks first.
                    let idx = (cursor as usize
                        + i * chunks.len() / self.outs.len().max(1))
                        % chunks.len();
                    self.sent_packets += 1;
                    ctx.send(
                        out.link,
                        Msg::Chunk { index: idx as u32, data: chunks[idx].clone() },
                    );
                }
                Role::Server(ServerRole::Erasure { shares }) => {
                    let column = out.thread.expect("erasure needs thread labels");
                    let stripe = (cursor as usize) % shares.len();
                    self.sent_packets += 1;
                    ctx.send(
                        out.link,
                        Msg::Share {
                            stripe: stripe as u32,
                            column,
                            data: shares[stripe][column as usize].clone(),
                        },
                    );
                }
                Role::Client(_) => unreachable!("send_as_server on client"),
            }
        }
    }

    fn send_as_client(&mut self, ctx: &mut Context<'_, Msg>) {
        match self.attack {
            AttackMode::Fail => return,
            AttackMode::Jamming => {
                for i in 0..self.outs.len() {
                    let coeffs: Vec<u8> = (0..self.gen_size).map(|_| ctx.rng().random()).collect();
                    let mut payload = vec![0u8; self.packet_len];
                    ctx.rng().fill(&mut payload[..]);
                    let p = CodedPacket::new(0, coeffs, payload);
                    ctx.send(self.outs[i].link, Msg::Coded(p));
                }
                return;
            }
            AttackMode::EntropyDestruction => {
                if let Role::Client(ClientRole::Rlnc { pinned: Some(p), .. }) = &self.role {
                    let p = p.clone();
                    for i in 0..self.outs.len() {
                        ctx.send(self.outs[i].link, Msg::Coded(p.clone()));
                    }
                }
                return;
            }
            AttackMode::Honest => {}
        }
        for i in 0..self.outs.len() {
            let out = self.outs[i];
            match &mut self.role {
                Role::Client(ClientRole::Rlnc { recoder, .. }) => {
                    if let Some(p) = recoder.recode(ctx.rng()) {
                        self.sent_packets += 1;
                        ctx.send(out.link, Msg::Coded(p));
                    }
                }
                Role::Client(ClientRole::Routing { chunks, have }) => {
                    if *have == 0 {
                        continue;
                    }
                    // Send a uniformly random chunk we own (gossip without
                    // rarest-first).
                    let owned: Vec<usize> = chunks
                        .iter()
                        .enumerate()
                        .filter_map(|(j, c)| c.as_ref().map(|_| j))
                        .collect();
                    let j = owned[ctx.rng().random_range(0..owned.len())];
                    self.sent_packets += 1;
                    ctx.send(
                        out.link,
                        Msg::Chunk {
                            index: j as u32,
                            data: chunks[j].clone().expect("owned chunk"),
                        },
                    );
                }
                Role::Client(ClientRole::Erasure { shares, .. }) => {
                    // Column-pure forwarding: resend stored shares of this
                    // out-thread, cycling through stripes.
                    let Some(column) = out.thread else { continue };
                    let stripes = shares.len();
                    let mut sent = false;
                    for probe in 0..stripes {
                        let stripe = (self.cursors[i] as usize + probe) % stripes;
                        if let Some(data) = &shares[stripe][column as usize] {
                            self.sent_packets += 1;
                            ctx.send(
                                out.link,
                                Msg::Share { stripe: stripe as u32, column, data: data.clone() },
                            );
                            self.cursors[i] = (stripe + 1) as u64;
                            sent = true;
                            break;
                        }
                    }
                    if !sent {
                        // Nothing stored for this column yet.
                        continue;
                    }
                }
                Role::Server(_) => unreachable!("send_as_client on server"),
            }
        }
    }
}

impl Actor<Msg> for Peer {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: HostId, msg: Msg) {
        if !self.alive {
            return;
        }
        self.received_packets += 1;
        let now = ctx.now().ticks();
        match (&mut self.role, msg) {
            (Role::Client(ClientRole::Rlnc { recoder, pinned }), Msg::Coded(p)) => {
                if self.attack == AttackMode::Jamming {
                    return; // jammers don't bother decoding
                }
                if pinned.is_none() && !p.is_vacuous() {
                    *pinned = Some(p.clone());
                }
                let _ = recoder.push(p); // malformed packets are dropped
            }
            (Role::Client(ClientRole::Routing { chunks, have }), Msg::Chunk { index, data }) => {
                let slot = &mut chunks[index as usize];
                if slot.is_none() {
                    *slot = Some(data);
                    *have += 1;
                }
            }
            (
                Role::Client(ClientRole::Erasure { shares, needed, stripes_done }),
                Msg::Share { stripe, column, data },
            ) => {
                let row = &mut shares[stripe as usize];
                let slot = &mut row[column as usize];
                if slot.is_none() {
                    *slot = Some(data);
                    let have = row.iter().filter(|x| x.is_some()).count();
                    if have == *needed {
                        *stripes_done += 1;
                    }
                }
            }
            // Cross-strategy or server-bound messages are dropped.
            _ => return,
        }
        self.note_completion(now);
    }

    fn on_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.alive {
            return;
        }
        match self.role {
            Role::Server(_) => self.send_as_server(ctx),
            Role::Client(_) => self.send_as_client(ctx),
        }
    }
}
