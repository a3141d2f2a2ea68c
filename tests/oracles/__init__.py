"""Reference implementations the tests compare production output against.

Nothing under ``src/`` imports these: they are the executable forms of
the paper's PM-side algorithms (Figure 1(c)'s vertex-split replay,
Algorithm 1's top-plane refinement) that the Direct Mesh answers are
checked against.
"""
