//! Correctness checks on the runtime's outputs.
//!
//! Each check is a pure function of what the runtime handed back and what
//! the seeded generator says it should have handed back, so the tests below
//! can show that every check rejects a tampered output.

use fairmpi::Tag;

/// A received two-sided message against the stream position it must hold.
/// The 8-byte payload carries the sender's sequence number masked by the
/// seed key, so a FIFO break shows up as a wrong number; 0-byte streams
/// carry only the seeded tag.
pub fn fifo(
    expected_tag: Tag,
    expected_payload: &[u8],
    tag: Tag,
    data: &[u8],
) -> Result<(), String> {
    if tag != expected_tag || data != expected_payload {
        return Err(format!(
            "FIFO break: expected tag {expected_tag} payload {expected_payload:?}, \
             got tag {tag} payload {data:?}"
        ));
    }
    Ok(())
}

/// A ping-pong reply must echo the ping byte for byte.
pub fn echo(sent: &[u8], got: &[u8]) -> Result<(), String> {
    if sent != got {
        return Err(format!("echo mismatch: sent {sent:?}, got {got:?}"));
    }
    Ok(())
}

/// The SPC message counters must both equal the number of messages the
/// workload issued.
pub fn spc_counts(sent: u64, received: u64, expected: u64) -> Result<(), String> {
    if sent != expected || received != expected {
        return Err(format!(
            "SPC messages_sent {sent} / messages_received {received} != expected {expected}"
        ));
    }
    Ok(())
}

/// One SPC counter against the count the workload issued.
pub fn spc_count(name: &str, got: u64, expected: u64) -> Result<(), String> {
    if got != expected {
        return Err(format!("SPC {name} {got} != expected {expected}"));
    }
    Ok(())
}

/// Target-window bytes: 8-byte slot `i` must hold `expected[i]`.
pub fn window_bytes(bytes: &[u8], expected: &[u64]) -> Result<(), String> {
    if bytes.len() != expected.len() * 8 {
        return Err(format!(
            "window holds {} bytes, expected {}",
            bytes.len(),
            expected.len() * 8
        ));
    }
    for (slot, (chunk, want)) in bytes.chunks_exact(8).zip(expected).enumerate() {
        let got = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        if got != *want {
            return Err(format!(
                "window slot {slot} holds {got:#018x}, expected {want:#018x}"
            ));
        }
    }
    Ok(())
}

/// A simulated grid-point mean against its committed
/// `figure,series,x,mean,stddev` row, compared at the CSV's precision.
pub fn vsim_mean(csv: &str, series: &str, x: usize, mean: f64) -> Result<(), String> {
    let committed = csv
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            (f.len() == 5 && f[1] == series && f[2] == x.to_string()).then(|| f[3].to_string())
        })
        .next()
        .ok_or_else(|| format!("no committed row for {series} at x={x}"))?;
    let got = format!("{mean:.3}");
    if got != committed {
        return Err(format!(
            "{series} x={x}: mean {got} != committed {committed}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_rejects_reordered_or_corrupted_messages() {
        let p = 5u64.to_le_bytes();
        assert!(fifo(3, &p, 3, &p).is_ok());
        assert!(
            fifo(3, &p, 3, &6u64.to_le_bytes()).is_err(),
            "wrong sequence number"
        );
        assert!(fifo(3, &p, 4, &p).is_err(), "wrong tag");
        assert!(fifo(3, &[], 3, &[]).is_ok());
        assert!(fifo(3, &[], 3, &[0]).is_err(), "0-byte stream grew a byte");
    }

    #[test]
    fn echo_rejects_a_changed_reply() {
        assert!(echo(b"abcdefgh", b"abcdefgh").is_ok());
        assert!(echo(b"abcdefgh", b"abcdefgX").is_err());
        assert!(echo(b"abcdefgh", b"abcdefg").is_err());
    }

    #[test]
    fn spc_counts_reject_any_mismatch() {
        assert!(spc_counts(10, 10, 10).is_ok());
        assert!(spc_counts(10, 9, 10).is_err(), "lost message");
        assert!(spc_counts(11, 11, 10).is_err(), "extra message");
        assert!(spc_count("rma_puts", 4, 4).is_ok());
        assert!(spc_count("rma_puts", 3, 4).is_err());
    }

    #[test]
    fn window_bytes_reject_a_stale_or_torn_slot() {
        let want = [0x0102_0304_0506_0708u64, 42];
        let mut bytes: Vec<u8> = want.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert!(window_bytes(&bytes, &want).is_ok());
        bytes[9] ^= 1;
        assert!(window_bytes(&bytes, &want).is_err(), "torn slot");
        assert!(window_bytes(&bytes[..8], &want).is_err(), "short window");
    }

    #[test]
    fn vsim_mean_rejects_a_drifted_mean() {
        let csv = "figure,series,x,mean,stddev\nfig_offload,Process,20,24024841.311,0.000\n";
        assert!(vsim_mean(csv, "Process", 20, 24_024_841.311_2).is_ok());
        assert!(
            vsim_mean(csv, "Process", 20, 24_024_841.32).is_err(),
            "drifted"
        );
        assert!(
            vsim_mean(csv, "Process", 19, 24_024_841.311).is_err(),
            "no row"
        );
        assert!(vsim_mean(csv, "Offload x2", 20, 1.0).is_err(), "no row");
    }
}
