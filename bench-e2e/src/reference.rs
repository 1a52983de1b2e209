//! The checked-in reference output, `docs/repro_output.txt`, split into
//! its per-experiment sections, plus the `tune` table's anchor rows.

/// `repro all` stdout as checked in; every product output is compared with
/// this or a section of it.
pub const REPRO_OUTPUT: &str = include_str!("../../docs/repro_output.txt");

/// Prefix of a section's header line: `== <id> — <title> ==`.
const HEADER: &str = "== ";
/// Separator between the id and the title in a header line.
const ID_END: &str = " — ";

/// One experiment's block of the reference output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section<'a> {
    /// Experiment id, as in the header.
    pub id: &'a str,
    /// The block from its header line up to the next header (or the end),
    /// exactly as `GET /v1/run/<id>?format=text` answers it.
    pub text: &'a str,
}

/// Splits `doc` at every `== <id> — ` header line. Bytes before the first
/// header, if any, belong to no section.
pub fn sections(doc: &str) -> Vec<Section<'_>> {
    let mut starts = Vec::new();
    let mut offset = 0;
    for line in doc.split_inclusive('\n') {
        if let Some(id) = line
            .strip_prefix(HEADER)
            .and_then(|rest| rest.split_once(ID_END))
            .map(|(id, _)| id)
        {
            starts.push((offset, id));
        }
        offset += line.len();
    }
    starts
        .iter()
        .enumerate()
        .map(|(i, &(start, id))| {
            let end = starts.get(i + 1).map_or(doc.len(), |&(next, _)| next);
            Section {
                id,
                text: &doc[start..end],
            }
        })
        .collect()
}

/// The section for experiment `id`, if `doc` has one.
pub fn section<'a>(doc: &'a str, id: &str) -> Option<&'a str> {
    sections(doc)
        .into_iter()
        .find(|s| s.id == id)
        .map(|s| s.text)
}

/// One row of the `tune` table: an anchor point the daemon's `/v1/tune`
/// must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneAnchor {
    /// Application name (`RENDER`, `DEPTH`, ...).
    pub app: String,
    /// Cluster count `C`.
    pub clusters: u32,
    /// ALUs per cluster `N`.
    pub alus: u32,
    /// Simulated cycles of the default configuration.
    pub default_cycles: u64,
    /// Simulated cycles of the tuned configuration.
    pub tuned_cycles: u64,
}

/// Parses the anchor rows of the `tune` section: lines of the form
/// `APP  C=<c> N=<n>  <default> <tuned> <speedup>x  <winner...>`.
///
/// # Errors
///
/// A description of the first malformed row, or of a missing section.
pub fn tune_anchors(doc: &str) -> Result<Vec<TuneAnchor>, String> {
    let text = section(doc, "tune").ok_or("no `tune` section")?;
    let mut anchors = Vec::new();
    // Skip the header line and the column-header line; stop at the notes.
    for line in text.lines().skip(2) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.is_empty() || fields[0] == "note:" {
            continue;
        }
        let bad = || format!("malformed tune row: {line:?}");
        let dim = |field: &str, key: &str| -> Result<u32, String> {
            field
                .strip_prefix(key)
                .and_then(|v| v.parse().ok())
                .ok_or_else(bad)
        };
        if fields.len() < 5 {
            return Err(bad());
        }
        anchors.push(TuneAnchor {
            app: fields[0].to_string(),
            clusters: dim(fields[1], "C=")?,
            alus: dim(fields[2], "N=")?,
            default_cycles: fields[3].parse().map_err(|_| bad())?,
            tuned_cycles: fields[4].parse().map_err(|_| bad())?,
        });
    }
    Ok(anchors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stream_apps::AppId;
    use stream_repro::ExperimentId;

    #[test]
    fn sections_concatenate_back_to_the_file() {
        let all = sections(REPRO_OUTPUT);
        let joined: String = all.iter().map(|s| s.text).collect();
        assert_eq!(joined, REPRO_OUTPUT);
    }

    #[test]
    fn every_experiment_has_exactly_one_section_in_order() {
        let ids: Vec<&str> = sections(REPRO_OUTPUT).iter().map(|s| s.id).collect();
        let expected: Vec<&str> = ExperimentId::ALL.iter().map(|id| id.name()).collect();
        assert_eq!(ids, expected, "regenerate docs/repro_output.txt");
    }

    #[test]
    fn sections_end_with_a_blank_line() {
        for s in sections(REPRO_OUTPUT) {
            assert!(s.text.ends_with("\n\n"), "{}", s.id);
        }
    }

    #[test]
    fn tune_table_has_two_anchors_per_app() {
        let anchors = tune_anchors(REPRO_OUTPUT).unwrap();
        assert_eq!(anchors.len(), 12);
        for app in AppId::ALL {
            let shapes: Vec<(u32, u32)> = anchors
                .iter()
                .filter(|a| a.app == app.name())
                .map(|a| (a.clusters, a.alus))
                .collect();
            assert_eq!(shapes, vec![(8, 5), (64, 8)], "{app}");
        }
        let conv = &anchors[5];
        assert_eq!(
            (conv.app.as_str(), conv.default_cycles, conv.tuned_cycles),
            ("CONV", 85_723, 73_031)
        );
        assert!(anchors.iter().all(|a| a.tuned_cycles <= a.default_cycles));
    }

    #[test]
    fn malformed_tune_rows_are_errors() {
        let doc = "== tune — t ==\n   app  shape\nCONV C=x N=8 1 1 1.0x\n\n";
        assert!(tune_anchors(doc).unwrap_err().contains("CONV C=x"));
        assert!(tune_anchors("== table1 — t ==\n").is_err());
    }
}
