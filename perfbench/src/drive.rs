//! Load generators: an open loop over the wire front and a closed loop of
//! streamed batches in process. Both record per-request timings and the
//! released contexts; tracing (when a recorder is passed) adds client-side
//! spans around each call into a layer's public functions.

use crate::gen::Planned;
use crate::trace::Recorder;
use pcor::data::Context;
use pcor::service::{
    decode_reply, encode_reply, encode_request, BatchReleaseRequest, FrameDecoder, ItemOutcome,
    RequestEnvelope, ResponseEnvelope, Server, WireReply,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the receiver waits for any reply before declaring the server
/// stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One released context, as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Release {
    /// The analyst charged.
    pub analyst: String,
    /// The queried record.
    pub record: usize,
    /// The ε charged.
    pub epsilon: f64,
    /// The released context.
    pub context: Context,
    /// Its utility as reported by the server.
    pub utility: f64,
    /// Fresh `f_M` calls the release reported.
    pub fm_calls: usize,
}

/// One request (single envelope or whole batch) and what came back.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Request id: the index in the plan (open loop) or
    /// `client << 32 | n` for client's n-th batch (closed loop).
    pub id: u64,
    /// When the request was due (open loop) or submitted (closed loop).
    pub due: Instant,
    /// When the client started sending it.
    pub sent: Instant,
    /// When its terminal reply was decoded.
    pub done: Instant,
    /// Server-side latency the reply reported.
    pub server_latency: Option<Duration>,
    /// Units attempted: 1 for a single, the item count for a batch.
    pub attempted: usize,
    /// Contexts released.
    pub releases: Vec<Release>,
    /// Errors, refusals and failed items, one entry each.
    pub failures: Vec<String>,
    /// Attempts refused with a retryable back-pressure error.
    pub shed: usize,
    /// How late the send ran: behind schedule (open loop) or after the
    /// client's previous reply (closed loop).
    pub lag: Duration,
}

impl Reply {
    /// Latency in ms from due time to terminal reply.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// What one measured phase produced.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase start (first due time).
    pub start: Instant,
    /// Last terminal reply.
    pub end: Instant,
    /// Every request, in send order per client.
    pub replies: Vec<Reply>,
}

impl Phase {
    /// Wall time of the phase in seconds.
    pub fn seconds(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64()
    }

    /// Units attempted.
    pub fn attempted(&self) -> usize {
        self.replies.iter().map(|r| r.attempted).sum()
    }

    /// Contexts released.
    pub fn released(&self) -> usize {
        self.replies.iter().map(|r| r.releases.len()).sum()
    }

    /// Every release of the phase.
    pub fn releases(&self) -> impl Iterator<Item = &Release> {
        self.replies.iter().flat_map(|r| r.releases.iter())
    }
}

/// Fills a single request's reply from its decoded terminal frame.
///
/// # Errors
/// A streamed item, which no single request may receive.
fn fill_single(reply: &mut Reply, decoded: pcor::service::Result<WireReply>) -> io::Result<()> {
    match decoded {
        Ok(WireReply::Response(envelope)) => match envelope.into_single() {
            Some(response) => {
                reply.server_latency = Some(response.latency);
                reply.releases.push(Release {
                    analyst: response.analyst,
                    record: response.record_id,
                    epsilon: response.epsilon_spent,
                    context: response.context,
                    utility: response.utility,
                    fm_calls: response.verification_calls,
                });
            }
            None => reply.failures.push("batch reply to a single".into()),
        },
        Ok(WireReply::Error(error)) => {
            if error.is_backpressure() {
                reply.shed = 1;
            }
            reply.failures.push(format!("{}: {}", error.kind, error.message));
        }
        Ok(WireReply::Item(_)) => {
            return Err(io::Error::other("streamed item for a single request"))
        }
        Err(e) => reply.failures.push(format!("undecodable reply: {e}")),
    }
    Ok(())
}

/// Records one wire request's client spans: `client.request` over
/// `net.encode_request`, `net.send`, `net.reply_wait` and
/// `net.decode_reply`. `received` is when the read holding the reply
/// returned.
fn wire_spans(
    rec: &mut Recorder,
    request: u64,
    times: &SendTimes,
    received: Instant,
    decode_start: Instant,
    done: Instant,
) {
    let root = rec.reserve_id();
    rec.record("net.encode_request", request, Some(root), times.sent, times.encoded);
    rec.record("net.send", request, Some(root), times.encoded, times.written);
    rec.record("net.reply_wait", request, Some(root), times.written, received.max(times.written));
    rec.record("net.decode_reply", request, Some(root), decode_start, done);
    rec.record_as(root, "client.request", request, None, times.sent, done);
}

/// Sender-side timestamps of one request.
struct SendTimes {
    sent: Instant,
    encoded: Instant,
    written: Instant,
}

/// Sends `plan` over one connection on schedule (a sender thread) while a
/// receiver thread collects the FIFO replies. With a recorder, the receiver
/// records `client.request` spans with `net.encode_request`, `net.send`,
/// `net.reply_wait` and `net.decode_reply` children.
///
/// # Errors
/// Socket errors, timeouts and undecodable frames.
pub fn open_loop(
    addr: SocketAddr,
    plan: &[Planned],
    mut recorder: Option<&mut Recorder>,
) -> io::Result<Phase> {
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    let mut reader = writer.try_clone()?;
    reader.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let start = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = mpsc::channel::<SendTimes>();

    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<()> {
            for planned in plan {
                let due = start + planned.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let frame = encode_request(&RequestEnvelope::single(planned.request.clone()));
                let encoded = Instant::now();
                writer.write_all(&frame)?;
                let written = Instant::now();
                if tx.send(SendTimes { sent, encoded, written }).is_err() {
                    break;
                }
            }
            Ok(())
        });

        let mut replies = Vec::with_capacity(plan.len());
        let mut decoder = FrameDecoder::new();
        let mut buf = vec![0u8; 64 * 1024];
        let mut received = Instant::now();
        let mut failure: Option<io::Error> = None;
        'read: while replies.len() < plan.len() {
            loop {
                let frame = match decoder.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(e) => {
                        failure = Some(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                        break 'read;
                    }
                };
                let decode_start = Instant::now();
                let decoded = decode_reply(&frame);
                let done = Instant::now();
                let Ok(times) = rx.recv() else {
                    failure = Some(io::Error::other("reply without a request"));
                    break 'read;
                };
                let index = replies.len();
                let planned = &plan[index];
                let mut reply = Reply {
                    id: index as u64,
                    due: start + planned.due,
                    sent: times.sent,
                    done,
                    server_latency: None,
                    attempted: 1,
                    releases: Vec::new(),
                    failures: Vec::new(),
                    shed: 0,
                    lag: times.sent.saturating_duration_since(start + planned.due),
                };
                if let Err(e) = fill_single(&mut reply, decoded) {
                    failure = Some(e);
                    break 'read;
                }
                if let Some(rec) = recorder.as_deref_mut() {
                    wire_spans(rec, index as u64, &times, received, decode_start, done);
                }
                replies.push(reply);
            }
            if replies.len() == plan.len() {
                break;
            }
            match reader.read(&mut buf) {
                Ok(0) => {
                    failure = Some(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
                    break;
                }
                Ok(n) => {
                    received = Instant::now();
                    decoder.extend(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        drop(rx);
        // Unblock a sender stuck on a full socket before joining it.
        if failure.is_some() {
            let _ = reader.shutdown(std::net::Shutdown::Both);
        }
        let sent = sender.join().map_err(|_| io::Error::other("sender thread panicked"))?;
        if let Some(e) = failure {
            return Err(e);
        }
        sent?;
        let end = replies.iter().map(|r| r.done).max().unwrap_or(start);
        Ok(Phase { start, end, replies })
    })
}

/// Submits one streamed batch and waits for every item and the summary.
/// With a recorder, records a `client.request` span with
/// `service.submit_batch_streaming`, one `service.next_item` per item and
/// `service.batch_wait`, plus the codec cost the same batch would pay on
/// the wire (`net.encode_request`, `net.decode_reply`).
pub fn batch_once(
    server: &Server,
    batch: BatchReleaseRequest,
    recorder: Option<(&mut Recorder, u64)>,
) -> Reply {
    let analyst = batch.analyst.clone();
    let attempted = batch.items.len();
    let mut spans: Vec<(&'static str, Instant, Instant)> = Vec::new();
    let traced = recorder.is_some();
    if traced {
        let t = Instant::now();
        std::hint::black_box(encode_request(&RequestEnvelope::batch(batch.clone())));
        spans.push(("net.encode_request", t, Instant::now()));
    }
    let sent = Instant::now();
    let mut reply = Reply {
        id: recorder.as_ref().map_or(0, |(_, id)| *id),
        due: sent,
        sent,
        done: sent,
        server_latency: None,
        attempted,
        releases: Vec::new(),
        failures: Vec::new(),
        shed: 0,
        lag: Duration::ZERO,
    };
    let mut stream = match server.submit_batch_streaming(batch) {
        Ok(stream) => stream,
        Err(e) => {
            reply.done = Instant::now();
            reply.failures = vec![e.to_string(); attempted];
            return reply;
        }
    };
    let mut mark = Instant::now();
    spans.push(("service.submit_batch_streaming", sent, mark));
    while let Some(item) = stream.next_item() {
        let now = Instant::now();
        spans.push(("service.next_item", mark, now));
        mark = now;
        match item.outcome {
            ItemOutcome::Released(release) => reply.releases.push(Release {
                analyst: analyst.clone(),
                record: item.record_id,
                epsilon: item.epsilon,
                context: release.context,
                utility: release.utility,
                fm_calls: release.verification_calls,
            }),
            ItemOutcome::Failed { error } => reply.failures.push(error),
        }
    }
    let summary = stream.wait();
    reply.done = Instant::now();
    spans.push(("service.batch_wait", mark, reply.done));
    match summary {
        Ok(summary) => {
            reply.server_latency = Some(summary.latency);
            if traced {
                let frame = encode_reply(&WireReply::Response(ResponseEnvelope::batch(summary)));
                let payload =
                    String::from_utf8_lossy(&frame[pcor::service::FRAME_HEADER_LEN..]).into_owned();
                let t = Instant::now();
                std::hint::black_box(decode_reply(&payload).ok());
                spans.push(("net.decode_reply", t, Instant::now()));
            }
        }
        Err(e) => reply.failures.push(e.to_string()),
    }
    let missing = attempted.saturating_sub(reply.releases.len() + reply.failures.len());
    reply.failures.extend(std::iter::repeat_n("item never streamed".to_string(), missing));
    if let Some((rec, request)) = recorder {
        let root = rec.reserve_id();
        let first = spans.iter().map(|s| s.1).min().unwrap_or(sent);
        let last = spans.iter().map(|s| s.2).max().unwrap_or(reply.done);
        for (name, a, b) in spans {
            rec.record(name, request, Some(root), a, b);
        }
        rec.record_as(root, "client.request", request, None, first, last);
    }
    reply
}

/// Runs `clients` closed-loop threads until `span` has passed, each
/// submitting the next batch from `next_batch(client)` as soon as the
/// previous one resolved.
pub fn closed_loop(
    server: &Server,
    clients: usize,
    span: Duration,
    next_batch: &(dyn Fn(usize) -> BatchReleaseRequest + Sync),
    recorder: Option<&mut Recorder>,
) -> Phase {
    let start = Instant::now();
    let deadline = start + span;
    let forks: Vec<Option<Recorder>> =
        (0..clients).map(|c| recorder.as_deref().map(|r| r.fork(c as u64 + 1))).collect();
    let mut lanes: Vec<(Vec<Reply>, Option<Recorder>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = forks
            .into_iter()
            .enumerate()
            .map(|(client, mut lane)| {
                scope.spawn(move || {
                    let mut replies: Vec<Reply> = Vec::new();
                    let mut n = 0u64;
                    let mut previous = start;
                    while Instant::now() < deadline {
                        let batch = next_batch(client);
                        let request = (client as u64) << 32 | n;
                        n += 1;
                        let mut reply =
                            batch_once(server, batch, lane.as_mut().map(|r| (r, request)));
                        reply.id = request;
                        reply.lag = reply.sent.saturating_duration_since(previous);
                        previous = reply.done;
                        replies.push(reply);
                    }
                    (replies, lane)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    if let Some(rec) = recorder {
        for (_, lane) in lanes.iter_mut() {
            if let Some(lane) = lane.take() {
                rec.absorb(lane);
            }
        }
    }
    let replies: Vec<Reply> = lanes.into_iter().flat_map(|(replies, _)| replies).collect();
    let end = replies.iter().map(|r| r.done).max().unwrap_or(start);
    Phase { start, end, replies }
}
