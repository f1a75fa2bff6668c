//! RFC 7541 Appendix C.5 / C.6 conformance: the three-response flow with
//! a 256-octet dynamic table, which exercises eviction mid-connection.
//! The RFC documents the exact table contents and sizes after each
//! response; this test drives our encoder/decoder pair through the same
//! flow and checks every documented intermediate state.

use h2hpack::encoder::{Encoder, EncoderOptions};
use h2hpack::{Decoder, Header};

fn response1() -> Vec<Header> {
    vec![
        Header::new(":status", "302"),
        Header::new("cache-control", "private"),
        Header::new("date", "Mon, 21 Oct 2013 20:13:21 GMT"),
        Header::new("location", "https://www.example.com"),
    ]
}

fn response2() -> Vec<Header> {
    vec![
        Header::new(":status", "307"),
        Header::new("cache-control", "private"),
        Header::new("date", "Mon, 21 Oct 2013 20:13:21 GMT"),
        Header::new("location", "https://www.example.com"),
    ]
}

fn response3() -> Vec<Header> {
    vec![
        Header::new(":status", "200"),
        Header::new("cache-control", "private"),
        Header::new("date", "Mon, 21 Oct 2013 20:13:22 GMT"),
        Header::new("location", "https://www.example.com"),
        Header::new("content-encoding", "gzip"),
        Header::new(
            "set-cookie",
            "foo=ASDJKHQKBZXOQWEOPIUAXQWEOIU; max-age=3600; version=1",
        ),
    ]
}

fn run_flow(use_huffman: bool) {
    let mut encoder = Encoder::with_options(EncoderOptions {
        max_table_size: 256,
        use_huffman,
        ..EncoderOptions::default()
    });
    let mut decoder = Decoder::with_table_size(256);

    // --- First response (C.5.1 / C.6.1) --------------------------------
    let block1 = encoder.encode_block(&response1());
    if use_huffman {
        // C.6.1: the first bytes are fixed by the representation choices
        // the RFC itself makes: literal-with-incremental-indexing, name
        // index 8 (:status), Huffman value "302" = 0x6402.
        assert_eq!(&block1[..4], &[0x48, 0x82, 0x64, 0x02]);
        assert_eq!(block1.len(), 54, "C.6.1 block is 54 octets");
    } else {
        assert_eq!(
            &block1[..2],
            &[0x48, 0x03],
            ":status literal, 3-octet raw value"
        );
    }
    assert_eq!(decoder.decode_block(&block1).unwrap(), response1());
    // RFC: table now holds 4 entries, 222 octets, newest first:
    // location, date, cache-control, :status 302.
    assert_eq!(decoder.table().len(), 4);
    assert_eq!(decoder.table().size(), 222);
    assert_eq!(encoder.table().size(), 222);
    assert_eq!(decoder.table().get(62).unwrap().0, "location");
    assert_eq!(decoder.table().get(65).unwrap(), (":status", "302"));

    // --- Second response (C.5.2 / C.6.2) --------------------------------
    let block2 = encoder.encode_block(&response2());
    assert_eq!(decoder.decode_block(&block2).unwrap(), response2());
    // Inserting ":status 307" (42 octets) evicts ":status 302"; the table
    // stays at 222 octets with 4 entries.
    assert_eq!(decoder.table().len(), 4);
    assert_eq!(decoder.table().size(), 222);
    assert_eq!(decoder.table().get(62).unwrap(), (":status", "307"));
    assert!(
        !matches!(decoder.table().lookup(":status", "302"), Some((_, true))),
        "302 evicted (no exact match remains)"
    );
    if use_huffman {
        // Everything except the new status is served from the table.
        assert!(block2.len() <= 8, "C.6.2 block is tiny: {}", block2.len());
    }

    // --- Third response (C.5.3 / C.6.3) ---------------------------------
    let block3 = encoder.encode_block(&response3());
    assert_eq!(decoder.decode_block(&block3).unwrap(), response3());
    // RFC: the new date, content-encoding and set-cookie entries evict
    // everything older; 3 entries, 215 octets, newest first: set-cookie,
    // content-encoding, date.
    assert_eq!(decoder.table().len(), 3);
    assert_eq!(decoder.table().size(), 215);
    assert_eq!(decoder.table().get(62).unwrap().0, "set-cookie");
    assert_eq!(
        decoder.table().get(63).unwrap(),
        ("content-encoding", "gzip")
    );
    assert_eq!(decoder.table().get(64).unwrap().0, "date");
    assert_eq!(encoder.table().size(), 215, "encoder mirrors the decoder");
}

#[test]
fn appendix_c5_response_flow_without_huffman() {
    run_flow(false);
}

#[test]
fn appendix_c6_response_flow_with_huffman() {
    run_flow(true);
}

#[test]
fn flow_survives_interleaved_table_size_updates() {
    // Shrink the table mid-flow and grow it back; both sides must stay in
    // lock-step (RFC 7541 §4.2).
    let mut encoder = Encoder::with_options(EncoderOptions {
        max_table_size: 256,
        ..EncoderOptions::default()
    });
    let mut decoder = Decoder::with_table_size(256);
    decoder
        .decode_block(&encoder.encode_block(&response1()))
        .unwrap();
    encoder.resize_table(64);
    let block = encoder.encode_block(&response2());
    decoder.decode_block(&block).unwrap();
    assert!(decoder.table().size() <= 64);
    encoder.resize_table(256);
    decoder
        .decode_block(&encoder.encode_block(&response3()))
        .unwrap();
    assert_eq!(decoder.table().size(), encoder.table().size());
    // End-to-end correctness after all the churn.
    let final_block = encoder.encode_block(&response3());
    assert_eq!(decoder.decode_block(&final_block).unwrap(), response3());
}
