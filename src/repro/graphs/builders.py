"""Empty on purpose: the alternate graph constructors that lived here had
no caller and were removed.

The module remains only because ``perfbench/layers.py`` imports
``repro.graphs.builders`` by name to wrap its functions.  Delete it once
perfbench no longer lists it.
"""
