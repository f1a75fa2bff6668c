//! A minimal HTTP/1.1 server endpoint and request builder.
//!
//! Exists for one purpose: the paper's fourth RTT estimator (Figure 6)
//! times an HTTP/1.1 request/response exchange, which — unlike ICMP, the
//! TCP handshake, and HTTP/2 PING — includes the server's request
//! processing time. This module provides the substrate for reproducing
//! that systematic gap.

use std::fmt;

use crate::pipe::ByteEndpoint;
use crate::time::{SimDuration, SimTime};

/// A tiny HTTP/1.1 origin server.
#[derive(Debug, Clone)]
pub struct Http1Server {
    /// Server software name for the `Server:` header.
    pub server_name: String,
    /// Body returned for every request.
    pub body: Vec<u8>,
    /// Time spent handling each request (parsing, routing, rendering).
    pub processing_delay: SimDuration,
}

impl Http1Server {
    /// Creates a server with the given processing delay.
    pub fn new(server_name: impl Into<String>, processing_delay: SimDuration) -> Http1Server {
        Http1Server {
            server_name: server_name.into(),
            body: b"<html><body>ok</body></html>".to_vec(),
            processing_delay,
        }
    }
}

impl ByteEndpoint for Http1Server {
    fn on_bytes(&mut self, _now: SimTime, bytes: &[u8], out: &mut Vec<u8>) {
        let text = String::from_utf8_lossy(bytes);
        let Some(request_line) = text.lines().next() else {
            return;
        };
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("");
        let (status, body): (&str, &[u8]) = match method {
            "GET" | "HEAD" => ("200 OK", &self.body),
            "" => return,
            _ => ("405 Method Not Allowed", b""),
        };
        write_response_head(
            out,
            status,
            &[
                ("Server", &self.server_name),
                ("Content-Length", &body.len()),
                ("Connection", &"keep-alive"),
            ],
        );
        // RFC 7231 §4.3.2: a HEAD response is the GET's header section
        // and ends there.
        if method != "HEAD" {
            out.extend_from_slice(body);
        }
    }

    fn processing_delay(&self) -> SimDuration {
        self.processing_delay
    }
}

/// Appends an HTTP/1.1 response head to `out`: the status line, one line
/// per `(name, value)` field and the terminating blank line, each ended
/// by CRLF (RFC 7230 §3).
fn write_response_head(out: &mut Vec<u8>, status: &str, fields: &[(&str, &dyn fmt::Display)]) {
    use std::io::Write as _;
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "HTTP/1.1 {status}\r\n");
    for (name, value) in fields {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// Builds a plain HTTP/1.1 GET request.
pub fn get_request(host: &str, path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: h2scope/0.1\r\nAccept: */*\r\n\r\n")
        .into_bytes()
}

/// Extracts the status code from an HTTP/1.1 response, if parseable.
pub fn parse_status(response: &[u8]) -> Option<u16> {
    let text = std::str::from_utf8(response).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    if !parts.next()?.starts_with("HTTP/1.1") {
        return None;
    }
    parts.next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::pipe::Pipe;

    fn clean(delay_ms: u64) -> LinkSpec {
        LinkSpec {
            delay: SimDuration::from_millis(delay_ms),
            jitter: SimDuration::ZERO,
            bandwidth_bps: None,
            loss: 0.0,
            retransmit_penalty: SimDuration::ZERO,
        }
    }

    #[test]
    fn get_round_trip_includes_processing_delay() {
        let server = Http1Server::new("test/1.0", SimDuration::from_millis(8));
        let mut pipe = Pipe::connect(server, clean(10), 1);
        let t0 = pipe.now();
        pipe.client_send(&get_request("example.com", "/"));
        let arrivals = pipe.run_to_quiescence();
        assert_eq!(arrivals.len(), 1);
        assert_eq!(parse_status(&arrivals[0].bytes), Some(200));
        // 2 × 10ms network + 8ms processing.
        assert_eq!(arrivals[0].at - t0, SimDuration::from_millis(28));
    }

    #[test]
    fn head_omits_body() {
        let mut server = Http1Server::new("test/1.0", SimDuration::ZERO);
        let get = server.on_bytes_vec(SimTime::ZERO, b"GET / HTTP/1.1\r\n\r\n");
        let head = server.on_bytes_vec(SimTime::ZERO, b"HEAD / HTTP/1.1\r\n\r\n");
        let (get_head, get_body) = get.split_at(get.len() - server.body.len());
        assert_eq!(get_body, server.body.as_slice());
        assert_eq!(head, get_head, "the GET's header section, no body");
        let text = String::from_utf8(head).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains(&format!("Content-Length: {}\r\n", server.body.len())));
        assert!(text.ends_with("\r\n\r\n"));
        // Every line ends in CRLF, never a bare LF (RFC 7230 §3).
        assert_eq!(text.matches('\n').count(), text.matches("\r\n").count());
    }

    #[test]
    fn unsupported_method_is_405() {
        let mut server = Http1Server::new("test/1.0", SimDuration::ZERO);
        let response = server.on_bytes_vec(SimTime::ZERO, b"DELETE / HTTP/1.1\r\n\r\n");
        assert_eq!(parse_status(&response), Some(405));
    }

    #[test]
    fn parse_status_rejects_garbage() {
        assert_eq!(parse_status(b"not http"), None);
        assert_eq!(parse_status(&[0xff, 0xfe]), None);
    }
}
