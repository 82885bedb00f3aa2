//! Linearization of a table into the model's input sequence (§4.2).
//!
//! "Given a table T = (C, H, E, e_t), we first linearize the input into a
//! sequence of tokens and entity cells by concatenating the table metadata
//! and scanning the table content row by row."

use crate::model::{EntityId, Table};
use crate::tokenizer::Vocab;
use serde::{Deserialize, Serialize};

/// Where a metadata token comes from (drives the type embedding `t` in
/// Eqn. 1 and column-level visibility).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TokenScope {
    /// Token of the table caption (page/section title included).
    Caption,
    /// Token of the header of the given column.
    Header(usize),
}

/// One metadata token in the linearized sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenItem {
    /// Vocabulary id.
    pub token: u32,
    /// Caption or header provenance.
    pub scope: TokenScope,
    /// Relative position within its caption/header (`p` in Eqn. 1).
    pub position: usize,
}

/// Where an entity sits in the table (drives the entity type embedding
/// `t_e` in Eqn. 2 and row/column visibility).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntityPosition {
    /// The table's topic entity `e_t`.
    Topic,
    /// A content cell at `(row, col)`.
    Cell {
        /// Row index.
        row: usize,
        /// Column index.
        col: usize,
    },
}

/// One entity cell in the linearized sequence: linked entity `e^e` plus the
/// token ids of its mention `e^m`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntityItem {
    /// The linked entity id.
    pub entity: EntityId,
    /// Token ids of the mention text (possibly empty for very short cells).
    pub mention_tokens: Vec<u32>,
    /// Structural position.
    pub position: EntityPosition,
    /// True when the entity sits in the table's subject column.
    pub is_subject: bool,
}

impl EntityItem {
    /// Entity type index for the type embedding: 0 = topic, 1 = subject,
    /// 2 = object (the paper's three entity-cell types).
    pub fn type_index(&self) -> usize {
        match (self.position, self.is_subject) {
            (EntityPosition::Topic, _) => 0,
            (_, true) => 1,
            (_, false) => 2,
        }
    }
}

/// Truncation limits applied during linearization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinearizeConfig {
    /// Maximum caption tokens kept.
    pub max_caption_tokens: usize,
    /// Maximum tokens kept per header.
    pub max_header_tokens: usize,
    /// Maximum content rows scanned.
    pub max_rows: usize,
    /// Maximum tokens kept per entity mention.
    pub max_mention_tokens: usize,
}

impl Default for LinearizeConfig {
    fn default() -> Self {
        Self { max_caption_tokens: 24, max_header_tokens: 6, max_rows: 32, max_mention_tokens: 6 }
    }
}

/// A table converted to the model input sequence: metadata tokens followed
/// by entity cells (topic entity first, then content row by row).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableInstance {
    /// Source table id.
    pub table_id: String,
    /// Metadata tokens (caption then headers, in column order).
    pub tokens: Vec<TokenItem>,
    /// Entity cells (topic entity first when present).
    pub entities: Vec<EntityItem>,
}

impl TableInstance {
    /// Linearize a [`Table`]. Unlinked cells are not part of the entity
    /// sequence (the paper's `E` contains linked entity cells).
    pub fn from_table(table: &Table, vocab: &Vocab, cfg: &LinearizeConfig) -> Self {
        let mut tokens = Vec::new();
        for (pos, id) in
            vocab.encode(&table.full_caption()).into_iter().take(cfg.max_caption_tokens).enumerate()
        {
            tokens.push(TokenItem { token: id, scope: TokenScope::Caption, position: pos });
        }
        for (col, header) in table.headers.iter().enumerate() {
            for (pos, id) in
                vocab.encode(header).into_iter().take(cfg.max_header_tokens).enumerate()
            {
                tokens.push(TokenItem { token: id, scope: TokenScope::Header(col), position: pos });
            }
        }
        let mut entities = Vec::new();
        if let Some(topic) = &table.topic_entity {
            entities.push(EntityItem {
                entity: topic.id,
                mention_tokens: vocab
                    .encode(&topic.mention)
                    .into_iter()
                    .take(cfg.max_mention_tokens)
                    .collect(),
                position: EntityPosition::Topic,
                is_subject: false,
            });
        }
        for (row, cells) in table.rows.iter().take(cfg.max_rows).enumerate() {
            for (col, cell) in cells.iter().enumerate() {
                if let Some(e) = &cell.entity {
                    entities.push(EntityItem {
                        entity: e.id,
                        mention_tokens: vocab
                            .encode(&e.mention)
                            .into_iter()
                            .take(cfg.max_mention_tokens)
                            .collect(),
                        position: EntityPosition::Cell { row, col },
                        is_subject: col == table.subject_column,
                    });
                }
            }
        }
        Self { table_id: table.id.clone(), tokens, entities }
    }

    /// Total sequence length (tokens + entity cells).
    pub fn seq_len(&self) -> usize {
        self.tokens.len() + self.entities.len()
    }

    /// Sequence index of entity `i` (entities follow all tokens).
    pub fn entity_seq_index(&self, i: usize) -> usize {
        self.tokens.len() + i
    }

    /// Indices (into `entities`) of cell entities in a given column.
    pub fn entities_in_column(&self, col: usize) -> Vec<usize> {
        self.entities
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.position, EntityPosition::Cell { col: c, .. } if c == col))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices (into `tokens`) of header tokens of a given column.
    pub fn header_tokens_of(&self, col: usize) -> Vec<usize> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.scope == TokenScope::Header(col))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cell, EntityRef};

    fn sample() -> Table {
        Table {
            id: "t1".into(),
            page_title: "Awards".into(),
            section_title: String::new(),
            caption: "best direction".into(),
            topic_entity: Some(EntityRef { id: 9, mention: "best direction award".into() }),
            headers: vec!["Year".into(), "Director".into()],
            subject_column: 0,
            rows: vec![
                vec![Cell::linked(1, "15th"), Cell::linked(2, "Satyajit Ray")],
                vec![Cell::linked(3, "17th"), Cell::text("unlinked person")],
            ],
        }
    }

    #[test]
    fn linearization_order_and_counts() {
        let t = sample();
        let v = Vocab::from_tables([&t], []);
        let inst = TableInstance::from_table(&t, &v, &LinearizeConfig::default());
        // caption: "awards best direction" = 3 tokens; headers: year, director
        assert_eq!(inst.tokens.len(), 5);
        assert_eq!(inst.tokens[0].scope, TokenScope::Caption);
        assert_eq!(inst.tokens[3].scope, TokenScope::Header(0));
        assert_eq!(inst.tokens[4].scope, TokenScope::Header(1));
        // entities: topic + 3 linked cells (unlinked cell excluded)
        assert_eq!(inst.entities.len(), 4);
        assert_eq!(inst.entities[0].position, EntityPosition::Topic);
        assert_eq!(inst.entities[1].position, EntityPosition::Cell { row: 0, col: 0 });
        assert!(inst.entities[1].is_subject);
        assert!(!inst.entities[2].is_subject);
        assert_eq!(inst.seq_len(), 9);
    }

    #[test]
    fn type_indices_follow_paper() {
        let t = sample();
        let v = Vocab::from_tables([&t], []);
        let inst = TableInstance::from_table(&t, &v, &LinearizeConfig::default());
        assert_eq!(inst.entities[0].type_index(), 0); // topic
        assert_eq!(inst.entities[1].type_index(), 1); // subject
        assert_eq!(inst.entities[2].type_index(), 2); // object
    }

    #[test]
    fn truncation_limits_apply() {
        let mut t = sample();
        t.caption = "a b c d e f g h i j k l m n o p".into();
        let v = Vocab::from_tables([&t], []);
        let cfg = LinearizeConfig { max_caption_tokens: 4, max_rows: 1, ..Default::default() };
        let inst = TableInstance::from_table(&t, &v, &cfg);
        let caption_tokens =
            inst.tokens.iter().filter(|tk| tk.scope == TokenScope::Caption).count();
        assert_eq!(caption_tokens, 4);
        // only row 0 kept -> topic + 2 entities
        assert_eq!(inst.entities.len(), 3);
    }

    #[test]
    fn helpers_locate_columns() {
        let t = sample();
        let v = Vocab::from_tables([&t], []);
        let inst = TableInstance::from_table(&t, &v, &LinearizeConfig::default());
        assert_eq!(inst.entities_in_column(0).len(), 2);
        assert_eq!(inst.entities_in_column(1).len(), 1);
        assert_eq!(inst.header_tokens_of(1).len(), 1);
        assert_eq!(inst.entity_seq_index(0), inst.tokens.len());
    }

    #[test]
    fn mention_tokens_match_vocab_encoding() {
        let t = sample();
        let v = Vocab::from_tables([&t], []);
        let inst = TableInstance::from_table(&t, &v, &LinearizeConfig::default());
        let satyajit = &inst.entities[2];
        assert_eq!(satyajit.mention_tokens, v.encode("Satyajit Ray"));
    }
}
