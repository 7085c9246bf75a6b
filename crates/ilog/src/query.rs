//! [`IlogQuery`]: a weakly safe ILOG¬ program packaged as a
//! [`calm_common::query::Query`].

use crate::eval::{eval_ilog_query, Limits};
use crate::program::IlogProgram;
use crate::safety::is_weakly_safe;
use calm_common::instance::Instance;
use calm_common::query::Query;
use calm_common::schema::Schema;

/// A query computed by a weakly safe ILOG¬ program. Divergence past the
/// default [`Limits`] (possible for non-terminating invention) yields the
/// empty output together with a panic in debug assertions — construct
/// only terminating programs for query use, or call
/// [`crate::eval::eval_ilog_query`] directly to handle divergence.
pub struct IlogQuery {
    name: String,
    program: IlogProgram,
    input_schema: Schema,
    output_schema: Schema,
}

impl IlogQuery {
    /// Package a weakly safe program as a query.
    ///
    /// # Errors
    /// Returns an error message when the program is not weakly safe.
    pub fn new(name: impl Into<String>, program: IlogProgram) -> Result<Self, String> {
        if !is_weakly_safe(&program) {
            return Err("program is not weakly safe".to_string());
        }
        let input_schema = program.program().edb();
        let output_schema = program.program().output_schema();
        Ok(IlogQuery {
            name: name.into(),
            program,
            input_schema,
            output_schema,
        })
    }

    /// Parse and package in one step.
    ///
    /// # Errors
    /// Returns the parse/validation error message.
    pub fn parse(name: impl Into<String>, src: &str) -> Result<Self, String> {
        IlogQuery::new(name, IlogProgram::parse(src)?)
    }

    /// The underlying program.
    pub fn program(&self) -> &IlogProgram {
        &self.program
    }
}

impl Query for IlogQuery {
    fn input_schema(&self) -> &Schema {
        &self.input_schema
    }

    fn output_schema(&self) -> &Schema {
        &self.output_schema
    }

    fn eval(&self, input: &Instance) -> Instance {
        let restricted = input.restrict(&self.input_schema);
        match eval_ilog_query(&self.program, &restricted, Limits::default()) {
            Ok(out) => out,
            Err(e) => {
                debug_assert!(false, "ILOG query diverged: {e}");
                Instance::new()
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::fact::fact;
    use calm_common::generator::path;

    #[test]
    fn ilog_query_evaluates() {
        let q = IlogQuery::parse(
            "pairs",
            "@output O.\n\
             Pair(*, x, y) :- E(x, y).\n\
             O(x, y) :- Pair(p, x, y).",
        )
        .unwrap();
        let out = q.eval(&path(2));
        assert_eq!(out.relation_len("O"), 2);
        assert!(out.contains(&fact("O", [0, 1])));
        assert_eq!(q.name(), "pairs");
    }

    #[test]
    fn rejects_unsafe_program() {
        let e = IlogQuery::parse("bad", "@output R.\nR(*, x) :- V(x).");
        assert!(e.is_err());
    }
}
