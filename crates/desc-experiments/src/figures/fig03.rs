//! Fig. 3: the illustrative one-byte comparison — parallel, serial,
//! and DESC transmission of 0b01010011 from all-zero wires.

use crate::table::Table;
use desc_core::schemes::{BinaryScheme, DescScheme, SerialScheme, SkipMode};
use desc_core::{Block, ChunkSize, TransferScheme};

/// Runs the experiment (no scale: it is a fixed example).
#[must_use]
pub fn run() -> Table {
    let byte = Block::from_bytes(&[0b0101_0011]);
    let mut t = Table::new(
        "Fig. 3: transmitting 01010011 — bit-flips and wires per technique",
        &["Technique", "Wires", "Bit-flips", "Cycles"],
    );
    let mut parallel = BinaryScheme::new(8);
    let c = parallel.transfer(&byte);
    t.row_owned(vec![
        "Parallel".into(),
        "8".into(),
        c.total_transitions().to_string(),
        c.cycles.to_string(),
    ]);
    let mut serial = SerialScheme::new();
    let c = serial.transfer(&byte);
    t.row_owned(vec![
        "Serial".into(),
        "1".into(),
        c.total_transitions().to_string(),
        c.cycles.to_string(),
    ]);
    let mut desc =
        DescScheme::new(2, ChunkSize::new(4).expect("valid"), SkipMode::None).without_sync_strobe();
    let c = desc.transfer(&byte);
    t.row_owned(vec![
        "DESC (2 data + reset)".into(),
        "3".into(),
        c.total_transitions().to_string(),
        c.cycles.to_string(),
    ]);
    t.note("paper: parallel 4 flips, serial 5 flips, DESC 3 flips");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_counts() {
        let t = run();
        assert_eq!(t.cell(0, 2), Some("4"));
        assert_eq!(t.cell(1, 2), Some("5"));
        assert_eq!(t.cell(2, 2), Some("3"));
    }
}
