//! The forest scoring kernel's name.
//!
//! Every batch scores through the [`crate::CompiledForest`] SoA walk.
//! QuickScorer-style bitvector kernels were measured against it and lost
//! on every forest shape, small trees included (DESIGN.md §16), so
//! there is nothing to select. [`ForestKernel`] remains as the name that
//! telemetry spans, [`crate::ServeMetrics`] and the CLI report.

/// The forest scoring kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForestKernel {
    /// SoA branching traversal ([`crate::CompiledForest`]).
    Compiled,
}

impl ForestKernel {
    /// The kernel's reported name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Compiled => "compiled",
        }
    }

    /// The telemetry span name batches scored by this kernel run under.
    pub fn span_name(self) -> &'static str {
        match self {
            Self::Compiled => "kernel/compiled",
        }
    }
}

impl std::fmt::Display for ForestKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
