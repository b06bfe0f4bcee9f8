include Llhsc.Frame (* the codec moved to Llhsc.Frame; Fleet.Frame stays a name for it *)
