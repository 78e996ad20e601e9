//! A client-side wire tap: a byte relay between the load generator's
//! `MuxClient` connections and the server that records, for each job,
//! when its first Pareto-delta frame reached the client side. The relay
//! forwards every byte unchanged, so the clients see the server's exact
//! stream.

use fairsqg_wire::{FrameDecoder, Value};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

type FirstDelta = Arc<Mutex<HashMap<u64, Instant>>>;

pub struct Tap {
    addr: SocketAddr,
    first_delta: FirstDelta,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Tap {
    /// Listens on a local port and relays each of the next `connections`
    /// accepted connections to `server`.
    pub fn start(server: SocketAddr, connections: usize) -> std::io::Result<Tap> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let first_delta = FirstDelta::default();
        let seen = Arc::clone(&first_delta);
        let acceptor = std::thread::spawn(move || {
            let mut relays = Vec::new();
            for _ in 0..connections {
                let Ok((client, _)) = listener.accept() else {
                    break;
                };
                let Ok(upstream) = TcpStream::connect(server) else {
                    break;
                };
                client.set_nodelay(true).ok();
                upstream.set_nodelay(true).ok();
                let (Ok(c2), Ok(u2)) = (client.try_clone(), upstream.try_clone()) else {
                    break;
                };
                relays.push(std::thread::spawn(move || pipe(c2, u2, None)));
                let seen = Arc::clone(&seen);
                relays.push(std::thread::spawn(move || {
                    pipe(upstream, client, Some(&seen))
                }));
            }
            relays
        });
        Ok(Tap {
            addr,
            first_delta,
            acceptor: Some(acceptor),
        })
    }

    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// When job `id`'s first delta frame arrived, if one did.
    pub fn first_delta(&self, id: u64) -> Option<Instant> {
        self.first_delta
            .lock()
            .expect("tap map lock is never held across a panic")
            .remove(&id)
    }

    /// Waits for every relay to finish. Call after the clients have
    /// disconnected; relays end when both sides have closed.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            for relay in acceptor.join().expect("tap acceptor panicked") {
                relay.join().expect("tap relay panicked");
            }
        }
    }
}

/// Copies `from` to `to` until end of stream, then half-closes `to`.
/// With `seen`, also scans the newline-delimited frames for delta events.
fn pipe(mut from: TcpStream, mut to: TcpStream, seen: Option<&FirstDelta>) {
    let mut buf = vec![0u8; 64 * 1024];
    let mut frames = FrameDecoder::new(64 * 1024 * 1024);
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let arrived = Instant::now();
        if let Some(seen) = seen {
            frames.push(&buf[..n]);
            while let Some(Ok(line)) = frames.next_frame() {
                if let Some(id) = delta_job(&line) {
                    seen.lock()
                        .expect("tap map lock is never held across a panic")
                        .entry(id)
                        .or_insert(arrived);
                }
            }
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

/// The job id of a delta event frame.
fn delta_job(line: &str) -> Option<u64> {
    if !line.contains("\"delta\"") {
        return None;
    }
    let frame = fairsqg_wire::parse(line).ok()?;
    if frame.get("event").and_then(Value::as_str) != Some("delta") {
        return None;
    }
    frame.get("id").and_then(Value::as_u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recognizes_delta_frames_only() {
        assert_eq!(
            delta_job(r#"{"added":[],"event":"delta","id":7,"removed":[],"rid":3}"#),
            Some(7)
        );
        assert_eq!(delta_job(r#"{"event":"settled","id":7,"rid":3}"#), None);
        assert_eq!(
            delta_job(r#"{"id":7,"ok":true,"result":{"delta":1.0}}"#),
            None
        );
        assert_eq!(delta_job("not json \"delta\""), None);
    }
}
