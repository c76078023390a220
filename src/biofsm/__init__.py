"""Two-node biofeedback prototype: wearable classifier, benchtop actuator.

The wearable half turns pulse and skin-conductance streams into one of three
arousal classes and reports each decision as a single UDP byte. The benchtop
half runs a five-state machine over those bytes (plus silence) and drives an
LED/buzzer pair. A tick-accurate simulator and an accuracy evaluation round
out the package.
"""

__version__ = "0.1.0"
