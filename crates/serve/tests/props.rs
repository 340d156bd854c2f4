//! Property tests for the serving wire: message codecs round-trip, framed
//! streams survive arbitrary read chunking, and arbitrary bytes end in a
//! typed outcome without panicking or over-allocating.

use dnnperf_sched::RecordingClock;
use dnnperf_serve::{
    read_frame, read_frame_deadline, write_frame, FrameRead, Request, Response, WireError,
    MAX_FRAME_BYTES,
};
use dnnperf_testkit::prelude::*;
use std::io::{BufReader, ErrorKind, Read};
use std::time::Duration;

/// Tenant and network names: anything without a tab (the field separator).
fn name() -> impl Gen<Value = String> {
    string_class("A-Za-z0-9_.é -", 0..24)
}

fn request() -> impl Gen<Value = Request> {
    (
        0usize..3,
        name(),
        name(),
        0usize..usize::MAX,
        any_bool(),
        0u64..u64::MAX,
    )
        .prop_map(|(verb, tenant, network, batch, has_deadline, ms)| {
            let deadline_ms = has_deadline.then_some(ms);
            match verb {
                0 => Request::Predict {
                    tenant,
                    network,
                    batch,
                    deadline_ms,
                },
                1 => Request::Graceful {
                    tenant,
                    network,
                    batch,
                    deadline_ms,
                },
                _ => Request::Stats,
            }
        })
}

fn response() -> impl Gen<Value = Response> {
    (
        0usize..8,
        0u64..u64::MAX,
        0usize..usize::MAX,
        vec((string_class("a-z_.", 0..12), 0u64..u64::MAX), 0..6),
        // Messages travel tab- and newline-free; `format` would flatten
        // those to spaces, which is not a round trip.
        string_class(" -~", 0..40),
    )
        .prop_map(|(kind, bits, notes, pairs, msg)| match kind {
            0 => Response::Ok {
                seconds: f64::from_bits(bits),
                degraded_notes: None,
            },
            1 => Response::Ok {
                seconds: f64::from_bits(bits),
                degraded_notes: Some(notes),
            },
            2 => Response::Stats(pairs),
            3 => Response::Overloaded,
            4 => Response::DeadlineExceeded,
            5 => Response::ShuttingDown,
            6 => Response::Internal(msg),
            _ => Response::Error(msg),
        })
}

/// Equality that compares predicted seconds by bit pattern, so NaN
/// payloads count as round-tripping when their bits survive.
fn same(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (
            Response::Ok {
                seconds: x,
                degraded_notes: n,
            },
            Response::Ok {
                seconds: y,
                degraded_notes: m,
            },
        ) => x.to_bits() == y.to_bits() && n == m,
        _ => a == b,
    }
}

/// A reader that hands out its bytes in the given chunk sizes (cycled),
/// the way a socket delivers a stream in arbitrary segments.
struct Chunky {
    bytes: Vec<u8>,
    at: usize,
    chunks: Vec<usize>,
    next: usize,
}

impl Read for Chunky {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.chunks.get(self.next % self.chunks.len()).copied();
        self.next += 1;
        let rest = self.bytes.get(self.at..).unwrap_or(&[]);
        let n = chunk.unwrap_or(1).min(buf.len()).min(rest.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.at += n;
        Ok(n)
    }
}

/// A slice reader that records the largest buffer a reader asked it to
/// fill. `read_frame*` allocate nothing but the payload buffer they read
/// into, so this bounds the allocation a declared length can force.
struct Recording<'a> {
    bytes: &'a [u8],
    largest_ask: usize,
}

impl Read for Recording<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.largest_ask = self.largest_ask.max(buf.len());
        self.bytes.read(buf)
    }
}

/// Declared frame lengths worth probing: small honest ones and both
/// sides of the cap.
fn declared_len() -> impl Gen<Value = u32> {
    let cap = MAX_FRAME_BYTES as u32;
    select(vec![0u32, 1, 3, 16, 64, cap - 1, cap, cap + 1, u32::MAX])
}

/// Arbitrary input, optionally opened by a length prefix so the payload
/// paths are reached and not just the oversized-prefix rejection.
fn hostile_bytes() -> impl Gen<Value = Vec<u8>> {
    (any_bool(), declared_len(), vec(0u32..256, 0..160)).prop_map(|(prefixed, len, raw)| {
        let mut bytes = Vec::new();
        if prefixed {
            bytes.extend_from_slice(&len.to_be_bytes());
        }
        bytes.extend(raw.into_iter().map(|b| b as u8));
        bytes
    })
}

props! {
    #[test]
    fn requests_round_trip(req in request()) {
        let back = Request::parse(&req.format()).unwrap();
        prop_assert_eq!(back, req);
    }

    #[test]
    fn responses_round_trip(resp in response()) {
        let back = Response::parse(&resp.format()).unwrap();
        prop_assert!(same(&back, &resp), "{resp:?} came back as {back:?}");
    }

    #[test]
    fn frames_survive_arbitrary_chunking(
        payloads in vec(string_class(" -~\téß€😀", 0..200), 1..21),
        chunks in vec(1usize..64, 1..8),
        capacity in 1usize..128,
        deadline in any_bool(),
    ) {
        let mut bytes = Vec::new();
        for p in &payloads {
            write_frame(&mut bytes, p).unwrap();
        }
        let chunky = Chunky { bytes, at: 0, chunks, next: 0 };
        let mut reader = BufReader::with_capacity(capacity, chunky);
        let clock = RecordingClock::new();
        let mut next = || -> Option<String> {
            if deadline {
                match read_frame_deadline(&mut reader, &clock, Duration::from_secs(1), Duration::ZERO)
                    .unwrap()
                {
                    FrameRead::Frame(f) => Some(f),
                    FrameRead::Closed => None,
                    other => panic!("unexpected {other:?}"),
                }
            } else {
                read_frame(&mut reader).unwrap()
            }
        };
        for want in &payloads {
            prop_assert_eq!(next().as_ref(), Some(want));
        }
        prop_assert_eq!(next(), None);
    }

    #[test]
    fn arbitrary_bytes_end_in_a_typed_outcome(bytes in hostile_bytes()) {
        // The server's reader: every stream ends closed, malformed or
        // oversized, and decoded frames parse or fail as malformed.
        let mut src = Recording { bytes: &bytes, largest_ask: 0 };
        let clock = RecordingClock::new();
        loop {
            match read_frame_deadline(&mut src, &clock, Duration::from_secs(1), Duration::ZERO) {
                Ok(FrameRead::Frame(f)) => match Request::parse(&f) {
                    Ok(_) | Err(WireError::Malformed(_)) => {}
                    Err(e) => panic!("parse ended in {e:?}"),
                },
                Ok(FrameRead::Closed)
                | Err(WireError::Malformed(_))
                | Err(WireError::FrameTooLarge(_)) => break,
                other => panic!("read_frame_deadline ended in {other:?}"),
            }
        }
        prop_assert!(src.largest_ask <= MAX_FRAME_BYTES, "asked for {}", src.largest_ask);

        // The client's reader agrees, except that a payload cut short
        // surfaces as the I/O error the retrying client treats as a
        // transient disconnect.
        let mut src = Recording { bytes: &bytes, largest_ask: 0 };
        loop {
            match read_frame(&mut src) {
                Ok(Some(f)) => match Request::parse(&f) {
                    Ok(_) | Err(WireError::Malformed(_)) => {}
                    Err(e) => panic!("parse ended in {e:?}"),
                },
                Ok(None) | Err(WireError::Malformed(_)) | Err(WireError::FrameTooLarge(_)) => break,
                Err(WireError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => break,
                other => panic!("read_frame ended in {other:?}"),
            }
        }
        prop_assert!(src.largest_ask <= MAX_FRAME_BYTES, "asked for {}", src.largest_ask);
    }
}
