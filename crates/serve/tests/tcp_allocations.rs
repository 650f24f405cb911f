//! Heap allocations on the TCP path, counted per thread by a global
//! allocator: decoding a `Frames` message allocates only the chunk the
//! session ring takes, the client frames chunks without allocating once
//! its buffer exists, and one near-cap message leaves no kept buffer
//! holding its capacity.

mod common;

use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;

use common::alloc::{counted, Counting};
use laelaps_core::Label;
use laelaps_serve::net::IngestClient;
use laelaps_serve::wire::{read_message, write_message, Message, MAX_PAYLOAD};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ELECTRODES: usize = 12;

/// One chunk at the deployment shape: 256 frames × 12 electrodes.
fn chunk() -> Vec<f32> {
    (0..256 * ELECTRODES).map(|i| i as f32 * 0.25).collect()
}

/// A stand-in server: answers the handshake, then reads and counts every
/// message until the client closes.
fn sink_server() -> (SocketAddr, JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        assert!(matches!(
            read_message(&mut stream).unwrap(),
            Some(Message::Hello { .. })
        ));
        write_message(
            &mut stream,
            &Message::Accepted {
                session: 1,
                electrodes: ELECTRODES as u32,
            },
        )
        .unwrap();
        let mut messages = 0;
        loop {
            match read_message(&mut stream).unwrap() {
                Some(Message::Close) | None => return messages,
                Some(_) => messages += 1,
            }
        }
    });
    (addr, server)
}

#[test]
fn decoding_frames_allocates_only_the_chunks_the_ring_takes() {
    let n = 64;
    let chunk = chunk();
    let mut stream = Vec::new();
    for _ in 0..n {
        write_message(
            &mut stream,
            &Message::Frames {
                chunk: chunk.as_slice().into(),
            },
        )
        .unwrap();
    }
    let mut reader = stream.as_slice();
    let mut decoded = Vec::with_capacity(n);
    let ((), counts) = counted(|| {
        for _ in 0..n {
            decoded.push(read_message(&mut reader).unwrap());
        }
    });
    assert!(
        counts.allocations <= n as u64,
        "{} allocations decoding {n} chunks",
        counts.allocations
    );
    for message in decoded {
        assert_eq!(
            message,
            Some(Message::Frames {
                chunk: chunk.as_slice().into()
            })
        );
    }
}

#[test]
fn the_client_frames_chunks_without_allocating_after_the_first() {
    let (addr, server) = sink_server();
    let mut client = IngestClient::connect(addr, "P", ELECTRODES as u32).unwrap();
    let chunk = chunk();
    client.send_chunk(&chunk).unwrap();
    let ((), counts) = counted(|| {
        for _ in 0..64 {
            client.send_chunk(&chunk).unwrap();
        }
    });
    assert_eq!(counts.allocations, 0, "sending 64 chunks allocated");
    client.finish().unwrap();
    assert_eq!(server.join().unwrap(), 65);
}

#[test]
fn one_near_cap_feedback_leaves_no_kept_buffer_holding_it() {
    let (addr, server) = sink_server();
    let mut client = IngestClient::connect(addr, "P", ELECTRODES as u32).unwrap();
    client.send_chunk(&chunk()).unwrap();
    // The largest segment one frame carries: a 16 MiB payload.
    let segment = vec![0.5f32; (MAX_PAYLOAD - 1) / 4];
    let ((), counts) = counted(|| client.send_feedback(Label::Ictal, &segment).unwrap());
    assert!(
        counts.largest >= MAX_PAYLOAD - 4,
        "the segment was framed whole ({} bytes at most)",
        counts.largest
    );
    assert!(
        counts.live_bytes < 1 << 20,
        "the client still holds {} bytes after the feedback",
        counts.live_bytes
    );
    client.finish().unwrap();
    assert_eq!(server.join().unwrap(), 2);
}
